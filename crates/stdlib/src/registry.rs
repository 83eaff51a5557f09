//! The builtin registry: every function Tetra provides out of the box.
//!
//! The paper's stdlib is "extremely spartan ... basic I/O functions and
//! functions for finding the lengths of strings and arrays" (§VI), and
//! names "mathematical functions, string handling functions and so on" as
//! future work. Both are built here: the paper's originals plus the
//! promised library.
//!
//! User-defined functions shadow builtins — Fig. II defines its own `sum`,
//! so name resolution must prefer program functions (both engines do).

/// Every builtin, grouped the way README documents them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    // --- I/O (paper §II/§VI) ---
    Print,
    ReadInt,
    ReadReal,
    ReadString,
    ReadBool,
    // --- core (paper) ---
    Len,
    // --- math (future-work library) ---
    Abs,
    Min,
    Max,
    Sqrt,
    Pow,
    Floor,
    Ceil,
    Round,
    Sin,
    Cos,
    Tan,
    Log,
    Exp,
    Random,
    RandInt,
    // --- conversions ---
    ToStr,
    ToInt,
    ToReal,
    // --- strings (future-work library) ---
    Upper,
    Lower,
    Trim,
    Substr,
    Find,
    Split,
    Join,
    Replace,
    StartsWith,
    EndsWith,
    // --- arrays ---
    Append,
    Pop,
    Insert,
    RemoveAt,
    Clear,
    Sort,
    Reverse,
    IndexOf,
    Contains,
    Copy,
    Fill,
    Sum,
    MinOf,
    MaxOf,
    // --- dicts (extension §VI) ---
    Keys,
    Values,
    HasKey,
    RemoveKey,
    // --- runtime services ---
    Gc,
    Sleep,
    TimeMs,
    ThreadId,
}

impl Builtin {
    /// Resolve a source-level name to a builtin.
    pub fn lookup(name: &str) -> Option<Builtin> {
        use Builtin::*;
        Some(match name {
            "print" => Print,
            "read_int" => ReadInt,
            "read_real" => ReadReal,
            "read_string" => ReadString,
            "read_bool" => ReadBool,
            "len" => Len,
            "abs" => Abs,
            "min" => Min,
            "max" => Max,
            "sqrt" => Sqrt,
            "pow" => Pow,
            "floor" => Floor,
            "ceil" => Ceil,
            "round" => Round,
            "sin" => Sin,
            "cos" => Cos,
            "tan" => Tan,
            "log" => Log,
            "exp" => Exp,
            "random" => Random,
            "rand_int" => RandInt,
            "str" => ToStr,
            "int" => ToInt,
            "real" => ToReal,
            "upper" => Upper,
            "lower" => Lower,
            "trim" => Trim,
            "substr" => Substr,
            "find" => Find,
            "split" => Split,
            "join" => Join,
            "replace" => Replace,
            "starts_with" => StartsWith,
            "ends_with" => EndsWith,
            "append" => Append,
            "pop" => Pop,
            "insert" => Insert,
            "remove_at" => RemoveAt,
            "clear" => Clear,
            "sort" => Sort,
            "reverse" => Reverse,
            "index_of" => IndexOf,
            "contains" => Contains,
            "copy" => Copy,
            "fill" => Fill,
            "sum" => Sum,
            "min_of" => MinOf,
            "max_of" => MaxOf,
            "keys" => Keys,
            "values" => Values,
            "has_key" => HasKey,
            "remove_key" => RemoveKey,
            "gc" => Gc,
            "sleep" => Sleep,
            "time_ms" => TimeMs,
            "thread_id" => ThreadId,
            _ => return None,
        })
    }

    /// The source-level name.
    pub fn name(&self) -> &'static str {
        use Builtin::*;
        match self {
            Print => "print",
            ReadInt => "read_int",
            ReadReal => "read_real",
            ReadString => "read_string",
            ReadBool => "read_bool",
            Len => "len",
            Abs => "abs",
            Min => "min",
            Max => "max",
            Sqrt => "sqrt",
            Pow => "pow",
            Floor => "floor",
            Ceil => "ceil",
            Round => "round",
            Sin => "sin",
            Cos => "cos",
            Tan => "tan",
            Log => "log",
            Exp => "exp",
            Random => "random",
            RandInt => "rand_int",
            ToStr => "str",
            ToInt => "int",
            ToReal => "real",
            Upper => "upper",
            Lower => "lower",
            Trim => "trim",
            Substr => "substr",
            Find => "find",
            Split => "split",
            Join => "join",
            Replace => "replace",
            StartsWith => "starts_with",
            EndsWith => "ends_with",
            Append => "append",
            Pop => "pop",
            Insert => "insert",
            RemoveAt => "remove_at",
            Clear => "clear",
            Sort => "sort",
            Reverse => "reverse",
            IndexOf => "index_of",
            Contains => "contains",
            Copy => "copy",
            Fill => "fill",
            Sum => "sum",
            MinOf => "min_of",
            MaxOf => "max_of",
            Keys => "keys",
            Values => "values",
            HasKey => "has_key",
            RemoveKey => "remove_key",
            Gc => "gc",
            Sleep => "sleep",
            TimeMs => "time_ms",
            ThreadId => "thread_id",
        }
    }

    /// This builtin's position in [`Builtin::all`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The builtin at position `index` of [`Builtin::all`].
    #[inline]
    pub fn from_index(index: usize) -> Builtin {
        Builtin::all()[index]
    }

    /// All builtins (docs, completion, tests), in declaration order.
    pub fn all() -> &'static [Builtin] {
        use Builtin::*;
        &[
            Print, ReadInt, ReadReal, ReadString, ReadBool, Len, Abs, Min, Max, Sqrt, Pow, Floor,
            Ceil, Round, Sin, Cos, Tan, Log, Exp, Random, RandInt, ToStr, ToInt, ToReal, Upper,
            Lower, Trim, Substr, Find, Split, Join, Replace, StartsWith, EndsWith, Append, Pop,
            Insert, RemoveAt, Clear, Sort, Reverse, IndexOf, Contains, Copy, Fill, Sum, MinOf,
            MaxOf, Keys, Values, HasKey, RemoveKey, Gc, Sleep, TimeMs, ThreadId,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_name_round_trip() {
        for b in Builtin::all() {
            assert_eq!(Builtin::lookup(b.name()), Some(*b), "{b:?}");
        }
    }

    #[test]
    fn index_round_trip() {
        for (i, b) in Builtin::all().iter().enumerate() {
            assert_eq!(b.index(), i, "{b:?}");
            assert_eq!(Builtin::from_index(i), *b);
        }
    }

    #[test]
    fn unknown_names_return_none() {
        // `sum` IS a builtin now, but user definitions shadow it — Fig. II
        // keeps working (covered by integration tests).
        assert_eq!(Builtin::lookup("sum"), Some(Builtin::Sum));
        assert_eq!(Builtin::lookup("fact"), None);
        assert_eq!(Builtin::lookup(""), None);
    }

    #[test]
    fn all_names_are_unique() {
        let mut names: Vec<_> = Builtin::all().iter().map(|b| b.name()).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
