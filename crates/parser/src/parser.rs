//! The recursive-descent parser core: token cursor, declarations and
//! statements. Expression parsing lives in [`crate::exprs`].

use tetra_ast::*;
use tetra_intern::Symbol;
use tetra_lexer::{Diagnostic, Span, Stage, Token, TokenKind};

/// Parse a complete Tetra source file into a [`Program`].
pub fn parse(source: &str) -> Result<Program, Diagnostic> {
    let tokens = tetra_lexer::tokenize(source)?;
    Parser::new(tokens).program()
}

/// Maximum block nesting (a student construct 64 deep is a bug, and the
/// recursive-descent parser must not overflow the native stack).
const MAX_BLOCK_DEPTH: u32 = 64;

pub(crate) struct Parser {
    toks: Vec<Token>,
    pos: usize,
    next_id: u32,
    block_depth: u32,
    pub(crate) expr_depth: u32,
    /// Tree depth of every expression node built so far, by node id.
    pub(crate) tree_depths: Vec<u32>,
}

impl Parser {
    pub(crate) fn new(toks: Vec<Token>) -> Self {
        Parser { toks, pos: 0, next_id: 0, block_depth: 0, expr_depth: 0, tree_depths: Vec::new() }
    }

    // ---- token cursor -----------------------------------------------------

    pub(crate) fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    pub(crate) fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// The span of the last token consumed.
    pub(crate) fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    pub(crate) fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    pub(crate) fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<Token, Diagnostic> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    pub(crate) fn error(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Stage::Parse, msg, self.peek_span())
    }

    pub(crate) fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    pub(crate) fn expect_ident(&mut self, what: &str) -> Result<(Symbol, Span), Diagnostic> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok((name, t.span))
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    // ---- program & declarations -------------------------------------------

    pub(crate) fn program(mut self) -> Result<Program, Diagnostic> {
        let mut funcs: Vec<FuncDef> = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Newline => {
                    self.bump();
                }
                TokenKind::Def => {
                    let f = self.func_def()?;
                    if let Some(prev) = funcs.iter().find(|p| p.name == f.name) {
                        return Err(Diagnostic::new(
                            Stage::Parse,
                            format!("function `{}` is defined more than once", f.name),
                            f.span,
                        )
                        .with_help(format!("the first definition is at line {}", prev.span.line)));
                    }
                    funcs.push(f);
                }
                other => return Err(self
                    .error(format!("expected a function definition, found {}", other.describe()))
                    .with_help(
                        "Tetra programs are lists of `def` functions; execution starts at main()",
                    )),
            }
        }
        Ok(Program { funcs, node_count: self.next_id })
    }

    fn func_def(&mut self) -> Result<FuncDef, Diagnostic> {
        let def_tok = self.expect(&TokenKind::Def)?;
        let (name, name_span) = self.expect_ident("a function name")?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let (pname, pspan) = self.expect_ident("a parameter name")?;
                let ty = self.parse_type().map_err(|d| {
                    d.with_help("parameters need declared types, e.g. `def f(x int, v [real]):`")
                })?;
                let id = self.fresh();
                if params.iter().any(|p: &Param| p.name == pname) {
                    return Err(Diagnostic::new(
                        Stage::Parse,
                        format!("duplicate parameter name `{pname}`"),
                        pspan,
                    ));
                }
                params.push(Param { name: pname, ty, span: pspan, id });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        // Optional return type before the colon.
        let ret = if self.at(&TokenKind::Colon) { Type::None } else { self.parse_type()? };
        self.expect(&TokenKind::Colon)?;
        let body = self.block()?;
        let id = self.fresh();
        Ok(FuncDef { name, params, ret, body, span: def_tok.span.to(name_span), id })
    }

    /// Parse a type annotation: `int`, `real`, `string`, `bool`, `none`,
    /// `[T]`, `{K: V}` or `(T1, T2, ...)`.
    pub(crate) fn parse_type(&mut self) -> Result<Type, Diagnostic> {
        match self.peek().clone() {
            TokenKind::TyInt => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::TyReal => {
                self.bump();
                Ok(Type::Real)
            }
            TokenKind::TyString => {
                self.bump();
                Ok(Type::Str)
            }
            TokenKind::TyBool => {
                self.bump();
                Ok(Type::Bool)
            }
            TokenKind::None => {
                self.bump();
                Ok(Type::None)
            }
            TokenKind::LBracket => {
                self.bump();
                let elem = self.parse_type()?;
                self.expect(&TokenKind::RBracket)?;
                Ok(Type::array(elem))
            }
            TokenKind::LBrace => {
                self.bump();
                let key = self.parse_type()?;
                self.expect(&TokenKind::Colon)?;
                let value = self.parse_type()?;
                self.expect(&TokenKind::RBrace)?;
                Ok(Type::dict(key, value))
            }
            TokenKind::LParen => {
                self.bump();
                let mut parts = vec![self.parse_type()?];
                while self.eat(&TokenKind::Comma) {
                    parts.push(self.parse_type()?);
                }
                self.expect(&TokenKind::RParen)?;
                if parts.len() < 2 {
                    return Err(self
                        .error("a tuple type needs at least two element types")
                        .with_help("write the element type directly instead of `(T)`"));
                }
                Ok(Type::Tuple(parts))
            }
            other => Err(self.error(format!("expected a type, found {}", other.describe()))),
        }
    }

    // ---- blocks & statements ----------------------------------------------

    /// `NEWLINE INDENT stmt+ DEDENT`
    pub(crate) fn block(&mut self) -> Result<Block, Diagnostic> {
        if self.block_depth >= MAX_BLOCK_DEPTH {
            return Err(self
                .error(format!("blocks are nested more than {MAX_BLOCK_DEPTH} levels deep"))
                .with_help("split this code into functions"));
        }
        self.block_depth += 1;
        let result = self.block_inner();
        self.block_depth -= 1;
        result
    }

    fn block_inner(&mut self) -> Result<Block, Diagnostic> {
        self.expect(&TokenKind::Newline)?;
        if !self.at(&TokenKind::Indent) {
            return Err(self
                .error("expected an indented block")
                .with_help("the body of a `:` statement must be indented"));
        }
        self.bump();
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::Dedent) && !self.at(&TokenKind::Eof) {
            if self.eat(&TokenKind::Newline) {
                continue;
            }
            stmts.push(self.stmt()?);
        }
        self.eat(&TokenKind::Dedent);
        Ok(Block::new(stmts))
    }

    pub(crate) fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::If => self.if_stmt(),
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::Colon)?;
                let body = self.block()?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::While { cond, body }, span, id })
            }
            TokenKind::For => {
                self.bump();
                let (var, iter, body) = self.for_tail()?;
                let var_id = self.fresh();
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::For { var, var_id, iter, body }, span, id })
            }
            TokenKind::Parallel => {
                self.bump();
                if self.eat(&TokenKind::For) {
                    let (var, iter, body) = self.for_tail()?;
                    let var_id = self.fresh();
                    let id = self.fresh();
                    Ok(Stmt { kind: StmtKind::ParallelFor { var, var_id, iter, body }, span, id })
                } else {
                    self.expect(&TokenKind::Colon)?;
                    let body = self.block()?;
                    let id = self.fresh();
                    Ok(Stmt { kind: StmtKind::Parallel { body }, span, id })
                }
            }
            TokenKind::Background => {
                self.bump();
                self.expect(&TokenKind::Colon)?;
                let body = self.block()?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Background { body }, span, id })
            }
            TokenKind::Lock => {
                self.bump();
                // Lock names live in their own namespace but lex as
                // identifiers (or keywords shadowing identifiers are not
                // allowed — an identifier is required).
                let (name, _) = self.expect_ident("a lock name")?;
                self.expect(&TokenKind::Colon)?;
                let body = self.block()?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Lock { name, body }, span, id })
            }
            TokenKind::Try => {
                self.bump();
                self.expect(&TokenKind::Colon)?;
                let body = self.block()?;
                self.expect(&TokenKind::Catch)
                    .map_err(|d| d.with_help("every `try:` needs a `catch <name>:` clause"))?;
                let (err_name, _) = self.expect_ident("an error variable name")?;
                self.expect(&TokenKind::Colon)?;
                let handler = self.block()?;
                let err_id = self.fresh();
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Try { body, err_name, err_id, handler }, span, id })
            }
            TokenKind::Catch => Err(self
                .error("`catch` without a preceding `try:` block")
                .with_help("write `try:` above, at the same indentation")),
            TokenKind::Return => {
                self.bump();
                let value = if self.at(&TokenKind::Newline) { None } else { Some(self.expr()?) };
                self.expect(&TokenKind::Newline)?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Return(value), span, id })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(&TokenKind::Newline)?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Break, span, id })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(&TokenKind::Newline)?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Continue, span, id })
            }
            TokenKind::Pass => {
                self.bump();
                self.expect(&TokenKind::Newline)?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Pass, span, id })
            }
            TokenKind::Assert => {
                self.bump();
                let cond = self.expr()?;
                let message = if self.eat(&TokenKind::Comma) { Some(self.expr()?) } else { None };
                self.expect(&TokenKind::Newline)?;
                let id = self.fresh();
                Ok(Stmt { kind: StmtKind::Assert { cond, message }, span, id })
            }
            TokenKind::Def => Err(self
                .error("function definitions cannot be nested")
                .with_help("move this `def` to the top level")),
            _ => self.expr_or_assign_stmt(),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.peek_span();
        self.expect(&TokenKind::If)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let then = self.block()?;
        let mut elifs = Vec::new();
        let mut els = None;
        loop {
            if self.at(&TokenKind::Elif) {
                self.bump();
                let c = self.expr()?;
                self.expect(&TokenKind::Colon)?;
                let b = self.block()?;
                elifs.push((c, b));
            } else if self.at(&TokenKind::Else) {
                self.bump();
                self.expect(&TokenKind::Colon)?;
                els = Some(self.block()?);
                break;
            } else {
                break;
            }
        }
        let id = self.fresh();
        Ok(Stmt { kind: StmtKind::If { cond, then, elifs, els }, span, id })
    }

    /// The common tail of `for` and `parallel for`: `var in seq: block`.
    fn for_tail(&mut self) -> Result<(Symbol, Expr, Block), Diagnostic> {
        let (var, _) = self.expect_ident("a loop variable")?;
        self.expect(&TokenKind::In)?;
        let iter = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.block()?;
        Ok((var, iter, body))
    }

    /// Parse either an expression statement or an assignment. We parse a full
    /// expression first and re-interpret it as an assignment target when an
    /// `=`-family operator follows.
    fn expr_or_assign_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let span = self.peek_span();
        let first = self.expr()?;
        let op = match self.peek() {
            TokenKind::Assign => Some(AssignOp::Set),
            TokenKind::PlusAssign => Some(AssignOp::Add),
            TokenKind::MinusAssign => Some(AssignOp::Sub),
            TokenKind::StarAssign => Some(AssignOp::Mul),
            TokenKind::SlashAssign => Some(AssignOp::Div),
            TokenKind::PercentAssign => Some(AssignOp::Mod),
            _ => None,
        };
        let kind = match op {
            Some(op) => {
                self.bump();
                let target = self.expr_to_target(first)?;
                let value = self.expr()?;
                StmtKind::Assign { target, op, value }
            }
            None => {
                // Plain expression statement: restrict to calls to catch the
                // classic `x == 1` typo? No — any expression is legal, but a
                // bare comparison gets a hint.
                if let ExprKind::Binary { op: BinOp::Eq, .. } = first.kind {
                    return Err(Diagnostic::new(
                        Stage::Parse,
                        "this `==` comparison has no effect as a statement",
                        first.span,
                    )
                    .with_help("did you mean `=` (assignment)?"));
                }
                StmtKind::Expr(first)
            }
        };
        self.expect(&TokenKind::Newline)?;
        let id = self.fresh();
        Ok(Stmt { kind, span, id })
    }

    fn expr_to_target(&mut self, e: Expr) -> Result<Target, Diagnostic> {
        match e.kind {
            ExprKind::Var(name) => Ok(Target::Name { name, span: e.span, id: e.id }),
            ExprKind::Index { base, index } => {
                Ok(Target::Index { base: *base, index: *index, span: e.span, id: e.id })
            }
            _ => Err(Diagnostic::new(Stage::Parse, "invalid assignment target", e.span)
                .with_help("only variables and element accesses like `a[i]` can be assigned to")),
        }
    }
}
