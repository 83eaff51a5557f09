//! Expression parsing (Pratt-style precedence climbing over the same token
//! cursor as [`crate::parser`]).
//!
//! Precedence, lowest first, matching Python where Tetra borrows syntax:
//!
//! | level | operators |
//! |-------|-----------|
//! | 1 | `or` |
//! | 2 | `and` |
//! | 3 | `not` (unary) |
//! | 4 | `==` `!=` `<` `>` `<=` `>=` (non-chaining) |
//! | 5 | `+` `-` |
//! | 6 | `*` `/` `%` |
//! | 7 | unary `-` |
//! | 8 | postfix call / index |

use crate::parser::Parser;
use tetra_ast::*;
use tetra_intern::Symbol;
use tetra_lexer::{Diagnostic, Stage, TokenKind};

/// Maximum expression nesting (parentheses, unary chains, literals).
/// Each level costs ~10 recursive-descent frames (~20 KiB in debug
/// builds); 48 keeps the parser inside a 2 MiB test-thread stack while
/// being far beyond human code.
const MAX_EXPR_DEPTH: u32 = 48;

/// Maximum depth of the expression tree the parser builds. The parser
/// reads a left-associative chain such as `1 + 1 + … + 1` or `s[0][0]…`
/// in a loop, but the tree it builds is as deep as the chain is long, and
/// every later pass (checker, resolver, compiler, both engines,
/// `Drop`) recurses once per level.
pub(crate) const MAX_TREE_DEPTH: u32 = 8_000;

/// The diagnostic for an expression past either limit.
fn too_deep(limit: u32, span: tetra_lexer::Span) -> Diagnostic {
    Diagnostic::new(
        Stage::Parse,
        format!("expression is nested more than {limit} levels deep"),
        span,
    )
    .with_help("break the expression into intermediate variables")
}

impl Parser {
    pub(crate) fn expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return Err(too_deep(MAX_EXPR_DEPTH, self.peek_span()));
        }
        self.expr_depth += 1;
        let result = self.or_expr();
        self.expr_depth -= 1;
        result
    }

    /// Build an expression node one level deeper than its deepest child.
    /// Past the limit, the diagnostic points at the token that completed
    /// the node: in a long chain, the operand that went one level too deep.
    fn mk(&mut self, kind: ExprKind, span: tetra_lexer::Span) -> Result<Expr, Diagnostic> {
        let depth = 1 + self.child_depth(&kind);
        if depth > MAX_TREE_DEPTH {
            return Err(too_deep(MAX_TREE_DEPTH, self.prev_span()));
        }
        let id = self.fresh();
        let at = id.0 as usize;
        if self.tree_depths.len() <= at {
            self.tree_depths.resize(at + 1, 0);
        }
        self.tree_depths[at] = depth;
        Ok(Expr { kind, span, id })
    }

    /// The tree depth of the deepest direct child of `kind`.
    fn child_depth(&self, kind: &ExprKind) -> u32 {
        let d = |e: &Expr| self.tree_depths[e.id.0 as usize];
        match kind {
            ExprKind::Int(_)
            | ExprKind::Real(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::None
            | ExprKind::Var(_) => 0,
            ExprKind::Unary { operand, .. } => d(operand),
            ExprKind::Binary { lhs: a, rhs: b, .. }
            | ExprKind::Index { base: a, index: b }
            | ExprKind::Range { lo: a, hi: b } => d(a).max(d(b)),
            ExprKind::Call { args: items, .. }
            | ExprKind::Array(items)
            | ExprKind::Tuple(items) => items.iter().map(d).max().unwrap_or(0),
            ExprKind::Dict(pairs) => pairs.iter().map(|(k, v)| d(k).max(d(v))).max().unwrap_or(0),
        }
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(
                ExprKind::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.not_expr()?;
        while self.at(&TokenKind::And) {
            self.bump();
            let rhs = self.not_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(
                ExprKind::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            )?;
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.at(&TokenKind::Not) {
            let start = self.peek_span();
            self.bump();
            self.expr_depth += 1;
            if self.expr_depth >= MAX_EXPR_DEPTH {
                self.expr_depth -= 1;
                return Err(too_deep(MAX_EXPR_DEPTH, start));
            }
            let operand = self.not_expr();
            self.expr_depth -= 1;
            let operand = operand?;
            let span = start.to(operand.span);
            return self.mk(ExprKind::Unary { op: UnOp::Not, operand: Box::new(operand) }, span);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        self.bump();
        let rhs = self.additive()?;
        // Reject chained comparisons explicitly — Python chains them, Tetra
        // keeps the simpler non-chaining rule; an explicit error prevents
        // silent mis-parses like (a < b) < c.
        if matches!(
            self.peek(),
            TokenKind::Eq
                | TokenKind::Ne
                | TokenKind::Lt
                | TokenKind::Gt
                | TokenKind::Le
                | TokenKind::Ge
        ) {
            return Err(Diagnostic::new(
                Stage::Parse,
                "comparisons cannot be chained",
                self.peek_span(),
            )
            .with_help("write `a < b and b < c` instead of `a < b < c`"));
        }
        let span = lhs.span.to(rhs.span);
        self.mk(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span)
    }

    fn additive(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span)?;
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diagnostic> {
        if self.at(&TokenKind::Minus) {
            let start = self.peek_span();
            self.bump();
            self.expr_depth += 1;
            if self.expr_depth >= MAX_EXPR_DEPTH {
                self.expr_depth -= 1;
                return Err(too_deep(MAX_EXPR_DEPTH, start));
            }
            let operand = self.unary();
            self.expr_depth -= 1;
            let operand = operand?;
            let span = start.to(operand.span);
            return self.mk(ExprKind::Unary { op: UnOp::Neg, operand: Box::new(operand) }, span);
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, Diagnostic> {
        let mut e = self.atom()?;
        loop {
            if self.at(&TokenKind::LBracket) {
                self.bump();
                let index = self.expr()?;
                let rb = self.expect(&TokenKind::RBracket)?;
                let span = e.span.to(rb.span);
                e = self.mk(ExprKind::Index { base: Box::new(e), index: Box::new(index) }, span)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, Diagnostic> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                self.mk(ExprKind::Int(v), span)
            }
            TokenKind::Real(v) => {
                self.bump();
                self.mk(ExprKind::Real(v), span)
            }
            TokenKind::Str(s) => {
                self.bump();
                self.mk(ExprKind::Str(s), span)
            }
            TokenKind::Bool(v) => {
                self.bump();
                self.mk(ExprKind::Bool(v), span)
            }
            TokenKind::None => {
                self.bump();
                self.mk(ExprKind::None, span)
            }
            // Type keywords in call position are the conversion builtins:
            // `int("42")`, `real(n)`, `string` has `str(...)` instead.
            TokenKind::TyInt | TokenKind::TyReal => {
                let callee = if self.at(&TokenKind::TyInt) { "int" } else { "real" };
                self.bump();
                if !self.at(&TokenKind::LParen) {
                    return Err(Diagnostic::new(
                        Stage::Parse,
                        format!("`{callee}` is a type name; only the conversion call `{callee}(...)` can appear in an expression"),
                        span,
                    ));
                }
                self.bump();
                let mut args = Vec::new();
                if !self.at(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let rp = self.expect(&TokenKind::RParen)?;
                let cspan = span.to(rp.span);
                self.mk(ExprKind::Call { callee: Symbol::intern(callee), args }, cspan)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let rp = self.expect(&TokenKind::RParen)?;
                    let cspan = span.to(rp.span);
                    self.mk(ExprKind::Call { callee: name, args }, cspan)
                } else {
                    self.mk(ExprKind::Var(name), span)
                }
            }
            TokenKind::LParen => {
                self.bump();
                let first = self.expr()?;
                if self.eat(&TokenKind::Comma) {
                    // Tuple literal.
                    let mut items = vec![first];
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            items.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let rp = self.expect(&TokenKind::RParen)?;
                    let tspan = span.to(rp.span);
                    if items.len() < 2 {
                        return Err(Diagnostic::new(
                            Stage::Parse,
                            "a tuple literal needs at least two elements",
                            tspan,
                        ));
                    }
                    self.mk(ExprKind::Tuple(items), tspan)
                } else {
                    self.expect(&TokenKind::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::LBracket => {
                self.bump();
                if self.at(&TokenKind::RBracket) {
                    let rb = self.bump();
                    return self.mk(ExprKind::Array(vec![]), span.to(rb.span));
                }
                let first = self.expr()?;
                if self.eat(&TokenKind::Ellipsis) {
                    // Range literal [lo ... hi].
                    let hi = self.expr()?;
                    let rb = self.expect(&TokenKind::RBracket)?;
                    let rspan = span.to(rb.span);
                    return self
                        .mk(ExprKind::Range { lo: Box::new(first), hi: Box::new(hi) }, rspan);
                }
                let mut items = vec![first];
                while self.eat(&TokenKind::Comma) {
                    if self.at(&TokenKind::RBracket) {
                        break; // allow trailing comma
                    }
                    items.push(self.expr()?);
                }
                let rb = self.expect(&TokenKind::RBracket)?;
                self.mk(ExprKind::Array(items), span.to(rb.span))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut pairs = Vec::new();
                if !self.at(&TokenKind::RBrace) {
                    loop {
                        let k = self.expr()?;
                        self.expect(&TokenKind::Colon)?;
                        let v = self.expr()?;
                        pairs.push((k, v));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        if self.at(&TokenKind::RBrace) {
                            break; // trailing comma
                        }
                    }
                }
                let rb = self.expect(&TokenKind::RBrace)?;
                self.mk(ExprKind::Dict(pairs), span.to(rb.span))
            }
            other => Err(self.error(format!("expected an expression, found {}", other.describe()))),
        }
    }
}
