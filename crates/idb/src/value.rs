//! Constants, marked nulls, and database values.
//!
//! Constants come from a countably infinite set `Const` and are interned
//! globally so that values are cheap to copy, hash, and compare. Marked
//! (labeled) nulls are identified by globally unique ids; the same null id
//! occurring in several positions denotes the same unknown value, which is
//! exactly the marked-null model of the paper.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Prefix reserved for machine-generated fresh constants (the canonical
/// enumeration and bijective valuations). User-facing constructors reject
/// names starting with this prefix so fresh constants can never collide
/// with user data.
pub const RESERVED_PREFIX: char = '~';

/// An interned symbol: a name for a constant, relation, or variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner { names: Vec::new(), ids: HashMap::new() }))
}

impl Symbol {
    /// Interns `name` and returns its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let mut i = interner().lock().unwrap();
        if let Some(&id) = i.ids.get(name) {
            return Symbol(id);
        }
        let id = i.names.len() as u32;
        i.names.push(name.to_string());
        i.ids.insert(name.to_string(), id);
        Symbol(id)
    }

    /// The interned string for this symbol.
    pub fn resolve(self) -> String {
        interner().lock().unwrap().names[self.0 as usize].clone()
    }

    /// How many distinct symbols have been interned so far. Symbols are
    /// never freed, so this is the interner's size for the life of the
    /// process.
    pub fn interned_count() -> usize {
        interner().lock().unwrap().names.len()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.resolve())
    }
}

/// A database constant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Cst(Symbol);

impl Cst {
    /// A constant with the given name. Panics on names using the reserved
    /// fresh-constant prefix [`RESERVED_PREFIX`]; parsers of client text
    /// use [`Cst::try_new`].
    pub fn new(name: &str) -> Cst {
        Cst::try_new(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A constant with the given name, or an error naming the reserved
    /// fresh-constant prefix [`RESERVED_PREFIX`] if `name` starts with it.
    pub fn try_new(name: &str) -> Result<Cst, String> {
        if name.starts_with(RESERVED_PREFIX) {
            return Err(format!(
                "constant name {name:?} uses the reserved prefix {RESERVED_PREFIX:?}"
            ));
        }
        Ok(Cst(Symbol::intern(name)))
    }

    /// An integer constant (its canonical decimal name).
    pub fn int(v: i64) -> Cst {
        Cst(Symbol::intern(&v.to_string()))
    }

    /// A machine-generated fresh constant; guaranteed disjoint from every
    /// constant built by [`Cst::new`] / [`Cst::int`]. Two calls with the
    /// same index yield the same constant.
    pub fn fresh(index: usize) -> Cst {
        Cst(Symbol::intern(&format!("{RESERVED_PREFIX}{index}")))
    }

    /// A fresh constant in a named family (e.g. separate pools for
    /// bijective valuations vs. the canonical enumeration).
    pub fn fresh_in(family: &str, index: usize) -> Cst {
        debug_assert!(!family.contains(RESERVED_PREFIX));
        Cst(Symbol::intern(&format!("{RESERVED_PREFIX}{family}{index}")))
    }

    /// True iff this constant is machine-generated.
    pub fn is_fresh(&self) -> bool {
        self.0.resolve().starts_with(RESERVED_PREFIX)
    }

    /// The constant's name.
    pub fn name(&self) -> String {
        self.0.resolve()
    }

    /// The underlying symbol.
    pub fn symbol(&self) -> Symbol {
        self.0
    }
}

impl fmt::Display for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

static NEXT_NULL: AtomicU32 = AtomicU32::new(0);

fn null_names() -> &'static Mutex<HashMap<u32, String>> {
    static NAMES: OnceLock<Mutex<HashMap<u32, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A marked null. Each null has a globally unique id; repeated occurrences
/// of the same `NullId` in a database denote the same unknown value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NullId(u32);

impl NullId {
    /// A fresh null, distinct from all previously created nulls.
    pub fn fresh() -> NullId {
        NullId(NEXT_NULL.fetch_add(1, Ordering::Relaxed))
    }

    /// A fresh null carrying a debug name (e.g. from the parser's `_x`).
    pub fn named(name: &str) -> NullId {
        let id = NullId::fresh();
        null_names().lock().unwrap().insert(id.0, name.to_string());
        id
    }

    /// The debug name, if any.
    pub fn name(&self) -> Option<String> {
        null_names().lock().unwrap().get(&self.0).cloned()
    }

    /// The raw id (for canonicalization and debugging).
    pub fn raw(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(f, "⊥{n}"),
            None => write!(f, "⊥#{}", self.0),
        }
    }
}

/// A database value: a constant or a marked null.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// A known constant.
    Const(Cst),
    /// A marked null (value exists but is unknown).
    Null(NullId),
}

impl Value {
    /// True iff this is a null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// The constant, if this is one.
    pub fn as_const(&self) -> Option<Cst> {
        match self {
            Value::Const(c) => Some(*c),
            Value::Null(_) => None,
        }
    }

    /// The null id, if this is a null.
    pub fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(*n),
            Value::Const(_) => None,
        }
    }
}

impl From<Cst> for Value {
    fn from(c: Cst) -> Value {
        Value::Const(c)
    }
}

impl From<NullId> for Value {
    fn from(n: NullId) -> Value {
        Value::Null(n)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

/// Shorthand for a named constant value.
pub fn cst(name: &str) -> Value {
    Value::Const(Cst::new(name))
}

/// Shorthand for an integer constant value.
pub fn int(v: i64) -> Value {
    Value::Const(Cst::int(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("abc"), Symbol::intern("abc"));
        assert_ne!(Symbol::intern("abc"), Symbol::intern("abd"));
        assert_eq!(Symbol::intern("abc").resolve(), "abc");
    }

    #[test]
    fn constants_compare_by_identity() {
        assert_eq!(Cst::new("a"), Cst::new("a"));
        assert_ne!(Cst::new("a"), Cst::new("b"));
        assert_eq!(Cst::int(7), Cst::new("7"));
    }

    #[test]
    #[should_panic(expected = "reserved prefix")]
    fn reserved_prefix_rejected() {
        let _ = Cst::new("~nope");
    }

    #[test]
    fn try_new_refuses_the_reserved_prefix() {
        assert_eq!(Cst::try_new("a"), Ok(Cst::new("a")));
        let e = Cst::try_new("~nope").unwrap_err();
        assert!(e.contains("reserved prefix"), "{e}");
    }

    #[test]
    fn fresh_constants_are_fresh() {
        let f = Cst::fresh(3);
        assert!(f.is_fresh());
        assert_eq!(f, Cst::fresh(3));
        assert_ne!(f, Cst::fresh(4));
        assert!(!Cst::new("x").is_fresh());
        assert_ne!(Cst::fresh_in("b", 0), Cst::fresh(0));
    }

    #[test]
    fn nulls_are_unique() {
        let a = NullId::fresh();
        let b = NullId::fresh();
        assert_ne!(a, b);
        let n = NullId::named("x");
        assert_eq!(n.name().as_deref(), Some("x"));
        assert!(a != n && b != n);
    }

    #[test]
    fn value_accessors() {
        let c = cst("a");
        let n = Value::Null(NullId::fresh());
        assert!(!c.is_null());
        assert!(n.is_null());
        assert_eq!(c.as_const(), Some(Cst::new("a")));
        assert_eq!(c.as_null(), None);
        assert!(n.as_null().is_some());
        assert_eq!(int(5).to_string(), "5");
    }
}
