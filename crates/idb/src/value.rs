//! Constants, marked nulls, and database values.
//!
//! Constants, relation names and variable names are interned so that
//! values are cheap to copy, hash, and compare. Marked (labeled) nulls
//! are identified by unique ids; the same null id occurring in several
//! positions denotes the same unknown value, which is exactly the
//! marked-null model of the paper.
//!
//! # Scoped interning
//!
//! By genericity (Definition 1) a constant matters only as an identity
//! within the database, query and tuple that mention it, and a null's
//! name is only a label. So a name needs to live no longer than the
//! state that mentions it. A [`SymbolScope`] owns the names interned
//! while it is current on a thread ([`SymbolScope::enter`],
//! [`SymbolScope::child`]), and the named nulls minted then. The
//! interner counts the scopes holding each symbol; when the last one
//! drops, the name is freed and its slot reused. A [`Symbol`] carries
//! its slot's generation, so resolving one after its release panics
//! instead of naming whatever took the slot.
//!
//! Names interned outside every scope are permanent, as are
//! machine-made constants ([`Cst::fresh`], [`Cst::fresh_in`]), whose
//! families are bounded by the largest instance rather than by traffic.
//! A name interned both inside and outside a scope becomes permanent.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Prefix reserved for machine-generated fresh constants (the canonical
/// enumeration and bijective valuations). User-facing constructors reject
/// names starting with this prefix so fresh constants can never collide
/// with user data.
pub const RESERVED_PREFIX: char = '~';

/// Bits of a [`Symbol`] that index its slot; the rest are the slot's
/// generation.
const INDEX_BITS: u32 = 22;
/// The slot index space: at most this many slots, live or retired.
const MAX_SLOTS: usize = 1 << INDEX_BITS;
/// A slot released at this generation is retired rather than reused, so
/// a symbol's bits are never issued twice.
const MAX_GEN: u32 = (1 << (32 - INDEX_BITS)) - 1;
/// Slots only permanent names may take, so that a machine-made name
/// never finds the index space full of client names.
const PERMANENT_RESERVE: usize = 1 << 16;

/// An id space ran out: a name or a null could not be given an id. A
/// server answers the line that needed it with an error; nothing wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdSpaceExhausted {
    /// Every symbol slot is live or retired.
    Symbols,
    /// Every null id has been issued.
    Nulls,
}

impl fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdSpaceExhausted::Symbols => write!(f, "symbol id space exhausted ({MAX_SLOTS} slots)"),
            IdSpaceExhausted::Nulls => f.write_str("null id space exhausted"),
        }
    }
}

impl std::error::Error for IdSpaceExhausted {}

/// An interned symbol: a name for a constant, relation, or variable.
/// Its bits are the slot index and the slot's generation, so equal
/// symbols are equal names while the name lives.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Symbol(u32);

impl Symbol {
    fn new(index: u32, gen: u32) -> Symbol {
        Symbol(gen << INDEX_BITS | index)
    }

    fn index(self) -> u32 {
        self.0 & (MAX_SLOTS as u32 - 1)
    }

    fn gen(self) -> u32 {
        self.0 >> INDEX_BITS
    }
}

/// One interner slot: a live name, or a free (or retired) place for one.
struct Slot {
    /// `None` while the slot is free or retired.
    name: Option<Arc<str>>,
    /// Bumped on every release, so stale symbols stop matching.
    gen: u32,
    /// How many scopes hold the name.
    holders: u32,
    /// Interned outside every scope: never released.
    permanent: bool,
}

/// The process-wide name tables.
struct Interner {
    slots: Vec<Slot>,
    ids: HashMap<Arc<str>, u32>,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
    /// Named nulls: the parser's `_x` labels, by null id.
    null_names: HashMap<u32, Box<str>>,
    /// The slot index space (smaller in unit tests).
    limit: usize,
    /// Slots at the top of the index space kept for permanent names.
    reserve: usize,
}

fn interner() -> MutexGuard<'static, Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER
        .get_or_init(|| Mutex::new(Interner::new(MAX_SLOTS, PERMANENT_RESERVE)))
        .lock()
        // Nothing under the lock panics short of a broken holder count,
        // and each update leaves the tables usable, so keep serving.
        .unwrap_or_else(PoisonError::into_inner)
}

impl Interner {
    fn new(limit: usize, reserve: usize) -> Interner {
        Interner {
            slots: Vec::new(),
            ids: HashMap::new(),
            free: Vec::new(),
            null_names: HashMap::new(),
            limit,
            reserve,
        }
    }

    /// Intern `name`, held by `frame`'s scope, or permanently without a
    /// frame.
    fn intern(
        &mut self,
        name: &str,
        frame: Option<&mut Frame>,
    ) -> Result<Symbol, IdSpaceExhausted> {
        if let Some(&index) = self.ids.get(name) {
            let slot = &mut self.slots[index as usize];
            match frame {
                None => slot.permanent = true,
                Some(frame) if !slot.permanent && !frame.scope().holds(index) => {
                    frame.taker().held().symbols.insert(index);
                    slot.holders += 1;
                }
                Some(_) => {}
            }
            return Ok(Symbol::new(index, slot.gen));
        }
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                let ceiling = if frame.is_some() { self.limit - self.reserve } else { self.limit };
                if self.slots.len() >= ceiling {
                    return Err(IdSpaceExhausted::Symbols);
                }
                self.slots.push(Slot { name: None, gen: 0, holders: 0, permanent: false });
                (self.slots.len() - 1) as u32
            }
        };
        let name: Arc<str> = Arc::from(name);
        self.ids.insert(Arc::clone(&name), index);
        let slot = &mut self.slots[index as usize];
        slot.name = Some(name);
        slot.permanent = frame.is_none();
        slot.holders = 0;
        if let Some(frame) = frame {
            frame.taker().held().symbols.insert(index);
            slot.holders = 1;
        }
        Ok(Symbol::new(index, slot.gen))
    }

    /// `sym`'s name, or `None` once its scope has released it.
    fn name(&self, sym: Symbol) -> Option<&str> {
        let slot = self.slots.get(sym.index() as usize)?;
        slot.name.as_deref().filter(|_| slot.gen == sym.gen())
    }

    /// Drop one scope's hold on its names and nulls: free every symbol
    /// no other scope holds and every null name it minted.
    fn release(&mut self, held: Held) {
        for index in held.symbols {
            let slot = &mut self.slots[index as usize];
            slot.holders -= 1;
            if slot.holders > 0 || slot.permanent {
                continue;
            }
            if let Some(name) = slot.name.take() {
                self.ids.remove(&name);
            }
            if slot.gen < MAX_GEN {
                slot.gen += 1;
                self.free.push(index);
            }
        }
        for id in held.nulls {
            self.null_names.remove(&id);
        }
    }
}

/// What one scope holds: symbol slots, and the null ids it named.
#[derive(Default)]
struct Held {
    symbols: HashSet<u32>,
    nulls: Vec<u32>,
}

/// An owner of interned names. While a scope is current on a thread
/// ([`SymbolScope::enter`], [`SymbolScope::child`]), every name
/// interned there that neither it nor an ancestor holds and that is not
/// permanent is held by it, as is every null named there; when the last
/// clone of the scope drops, the names no other scope holds are freed.
/// A child keeps its parent alive.
///
/// Anything that keeps a scope's symbols must keep the scope too.
#[derive(Clone, Default)]
pub struct SymbolScope(Arc<ScopeInner>);

impl fmt::Debug for SymbolScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolScope").finish_non_exhaustive()
    }
}

#[derive(Default)]
struct ScopeInner {
    parent: Option<SymbolScope>,
    /// Only touched under the interner's lock.
    held: Mutex<Held>,
}

impl Drop for ScopeInner {
    fn drop(&mut self) {
        let held = std::mem::take(self.held.get_mut().unwrap_or_else(PoisonError::into_inner));
        if !held.symbols.is_empty() || !held.nulls.is_empty() {
            interner().release(held);
        }
    }
}

impl SymbolScope {
    /// A new scope holding nothing.
    pub fn new() -> SymbolScope {
        SymbolScope::default()
    }

    /// Run `f` with this scope current on this thread. The names and
    /// nulls `f` interns join this scope if it returns `Ok`, and end
    /// with it otherwise.
    pub fn enter<T, E>(&self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (result, child) = self.child(f);
        if let (Ok(_), Some(child)) = (&result, child) {
            self.absorb(&child);
        }
        result
    }

    /// Move `child`'s holds into this scope.
    fn absorb(&self, child: &SymbolScope) {
        let mut interner = interner();
        let taken = std::mem::take(&mut *child.held());
        let mut held = self.held();
        for index in taken.symbols {
            if !held.symbols.insert(index) {
                interner.slots[index as usize].holders -= 1;
            }
        }
        held.nulls.extend(taken.nulls);
    }

    /// Run `f` in a child of this scope, created only if `f` interns a
    /// name this scope's chain does not hold (or names a null). Returns
    /// `f`'s result and the child, if one was created; dropping it ends
    /// the child's names.
    pub fn child<R>(&self, f: impl FnOnce() -> R) -> (R, Option<SymbolScope>) {
        with_frame(Frame { parent: self.clone(), child: None }, f)
    }

    /// A scope holding every name interned so far in the innermost
    /// frame on this thread, or `None` outside every scope.
    pub fn current() -> Option<SymbolScope> {
        CURRENT.with(|current| current.borrow().as_ref().map(|frame| frame.scope().clone()))
    }

    fn held(&self) -> MutexGuard<'_, Held> {
        self.0.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True iff this scope or an ancestor holds slot `index`.
    fn holds(&self, index: u32) -> bool {
        self.held().symbols.contains(&index)
            || self.0.parent.as_ref().is_some_and(|p| p.holds(index))
    }
}

/// A thread's current scope: a child of `parent`, created when the
/// first name it must hold is interned.
struct Frame {
    parent: SymbolScope,
    child: Option<SymbolScope>,
}

impl Frame {
    /// The innermost scope: the child once created, else the parent.
    fn scope(&self) -> &SymbolScope {
        self.child.as_ref().unwrap_or(&self.parent)
    }

    /// The scope to hold a new name, creating the child.
    fn taker(&mut self) -> &SymbolScope {
        let parent = &self.parent;
        self.child.get_or_insert_with(|| {
            SymbolScope(Arc::new(ScopeInner {
                parent: Some(parent.clone()),
                held: Mutex::default(),
            }))
        })
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Frame>> = const { RefCell::new(None) };
}

/// Run `f` with `frame` current, restoring the enclosing frame after
/// (also when `f` unwinds); returns `f`'s result and `frame`'s child.
fn with_frame<R>(frame: Frame, f: impl FnOnce() -> R) -> (R, Option<SymbolScope>) {
    struct Restore(Option<Option<Frame>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(outer) = self.0.take() {
                let _ours = CURRENT.with(|current| current.replace(outer));
            }
        }
    }
    let mut restore = Restore(Some(CURRENT.with(|current| current.replace(Some(frame)))));
    let result = f();
    let outer = restore.0.take().unwrap_or(None);
    let ours = CURRENT.with(|current| current.replace(outer));
    (result, ours.and_then(|frame| frame.child))
}

impl Symbol {
    /// Interns `name` and returns its symbol: held by the current scope,
    /// or permanent outside every scope. Idempotent while the name
    /// lives. Panics if the id space is exhausted; parsers of client
    /// text use [`Symbol::try_intern`].
    pub fn intern(name: &str) -> Symbol {
        Symbol::try_intern(name).unwrap_or_else(|e| panic!("interning {name:?}: {e}"))
    }

    /// [`Symbol::intern`], or an error when the id space is exhausted.
    pub fn try_intern(name: &str) -> Result<Symbol, IdSpaceExhausted> {
        CURRENT.with(|current| interner().intern(name, current.borrow_mut().as_mut()))
    }

    /// Interns `name` for the life of the process, whatever scope is
    /// current: for machine-made names from a bounded family.
    pub fn permanent(name: &str) -> Symbol {
        interner().intern(name, None).unwrap_or_else(|e| panic!("interning {name:?}: {e}"))
    }

    /// The live symbol named `name`, if any, without interning it: for
    /// lookups that only compare against symbols held elsewhere.
    pub(crate) fn lookup(name: &str) -> Option<Symbol> {
        let interner = interner();
        let &index = interner.ids.get(name)?;
        Some(Symbol::new(index, interner.slots[index as usize].gen))
    }

    /// The interned string for this symbol. Panics if the scope that
    /// held it has released it.
    pub fn resolve(self) -> String {
        self.with_name(str::to_string)
    }

    /// Run `f` on this symbol's name, under the interner's lock. Panics
    /// (outside the lock) if the name has been released.
    fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        let interner = interner();
        match interner.name(self) {
            Some(name) => f(name),
            None => {
                drop(interner);
                panic!("symbol {self:?} used after its scope released it")
            }
        }
    }

    /// How many symbols are live: permanent, or held by a scope.
    pub fn interned_count() -> usize {
        interner().ids.len()
    }

    /// The size of the interner's slot table: live, free and retired
    /// slots.
    pub fn slot_count() -> usize {
        interner().slots.len()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_name(|name| f.write_str(name))
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
    /// fresh-constant prefix [`RESERVED_PREFIX`] if `name` starts with it,
    /// or the exhausted id space.
    pub fn try_new(name: &str) -> Result<Cst, String> {
        if name.starts_with(RESERVED_PREFIX) {
            return Err(format!(
                "constant name {name:?} uses the reserved prefix {RESERVED_PREFIX:?}"
            ));
        }
        Symbol::try_intern(name).map(Cst).map_err(|e| e.to_string())
    }

    /// An integer constant (its canonical decimal name).
    pub fn int(v: i64) -> Cst {
        Cst(Symbol::intern(&v.to_string()))
    }

    /// A machine-generated fresh constant; guaranteed disjoint from every
    /// constant built by [`Cst::new`] / [`Cst::int`], and permanent, like
    /// every machine-made name. Two calls with the same index yield the
    /// same constant.
    pub fn fresh(index: usize) -> Cst {
        Cst(Symbol::permanent(&format!("{RESERVED_PREFIX}{index}")))
    }

    /// A fresh constant in a named family (e.g. separate pools for
    /// bijective valuations vs. the canonical enumeration).
    pub fn fresh_in(family: &str, index: usize) -> Cst {
        debug_assert!(!family.contains(RESERVED_PREFIX));
        Cst(Symbol::permanent(&format!("{RESERVED_PREFIX}{family}{index}")))
    }

    /// True iff this constant is machine-generated.
    pub fn is_fresh(&self) -> bool {
        self.0.with_name(|name| name.starts_with(RESERVED_PREFIX))
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

/// The next null id, or an error once all of them have been issued.
fn next_null_id() -> Result<u32, IdSpaceExhausted> {
    #[cfg(test)]
    if let Some(id) = tests::next_local_null_id() {
        return id;
    }
    NEXT_NULL
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
        .map_err(|_| IdSpaceExhausted::Nulls)
}

/// A marked null. Each null has a unique id; repeated occurrences of the
/// same `NullId` in a database denote the same unknown value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NullId(u32);

impl NullId {
    /// A fresh null, distinct from all previously created nulls. Panics
    /// once the id space is exhausted; parsers use [`NullId::try_fresh`].
    pub fn fresh() -> NullId {
        NullId::try_fresh().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NullId::fresh`], or an error when the id space is exhausted.
    pub fn try_fresh() -> Result<NullId, IdSpaceExhausted> {
        next_null_id().map(NullId)
    }

    /// A fresh null carrying a debug name (e.g. from the parser's `_x`).
    /// The name lives as long as the current scope, or for good outside
    /// every scope.
    pub fn named(name: &str) -> NullId {
        NullId::try_named(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NullId::named`], or an error when the id space is exhausted.
    pub fn try_named(name: &str) -> Result<NullId, IdSpaceExhausted> {
        let id = next_null_id()?;
        CURRENT.with(|current| {
            let mut interner = interner();
            interner.null_names.insert(id, name.into());
            if let Some(frame) = current.borrow_mut().as_mut() {
                frame.taker().held().nulls.push(id);
            }
        });
        Ok(NullId(id))
    }

    /// The debug name, if any.
    pub fn name(&self) -> Option<String> {
        interner().null_names.get(&self.0).map(|name| name.to_string())
    }

    /// How many named nulls are live: minted outside every scope, or in
    /// a scope not yet released.
    pub fn named_count() -> usize {
        interner().null_names.len()
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
    use std::cell::Cell;

    thread_local! {
        /// This thread's own null counter, when a test has started one.
        static LOCAL_NEXT_NULL: Cell<Option<u32>> = const { Cell::new(None) };
    }

    /// Start this thread's null ids at `next`, so a test can run the id
    /// space out without touching the ids other tests draw.
    fn start_nulls_at(next: u32) {
        LOCAL_NEXT_NULL.set(Some(next));
    }

    /// The next id from this thread's counter, if a test started one:
    /// the same checked step as the process-wide counter.
    pub(super) fn next_local_null_id() -> Option<Result<u32, IdSpaceExhausted>> {
        let next = LOCAL_NEXT_NULL.get()?;
        Some(match next.checked_add(1) {
            Some(after) => {
                LOCAL_NEXT_NULL.set(Some(after));
                Ok(next)
            }
            None => Err(IdSpaceExhausted::Nulls),
        })
    }

    /// A scope for driving a local interner. It forgets its holds when
    /// dropped, so they never reach the process-wide one.
    struct LocalScope(SymbolScope);

    impl LocalScope {
        fn new() -> LocalScope {
            LocalScope(SymbolScope::new())
        }
    }

    impl std::ops::Deref for LocalScope {
        type Target = SymbolScope;
        fn deref(&self) -> &SymbolScope {
            &self.0
        }
    }

    impl Drop for LocalScope {
        fn drop(&mut self) {
            std::mem::take(&mut *self.0.held());
        }
    }

    /// A frame whose new names `scope` holds.
    fn frame(scope: &SymbolScope) -> Frame {
        Frame { parent: SymbolScope::new(), child: Some(scope.clone()) }
    }

    /// [`SymbolScope::enter`] for an `f` that cannot fail.
    fn enter<R>(scope: &SymbolScope, f: impl FnOnce() -> R) -> R {
        scope.enter(|| Ok::<_, ()>(f())).unwrap()
    }

    /// Release `scope`'s hold on a local interner's names.
    fn release(interner: &mut Interner, scope: &SymbolScope) {
        interner.release(std::mem::take(&mut *scope.held()));
    }

    #[test]
    fn null_ids_run_out_as_an_error_not_a_wrap() {
        start_nulls_at(u32::MAX - 2);
        assert_eq!(NullId::try_fresh(), Ok(NullId(u32::MAX - 2)));
        assert_eq!(NullId::try_named("x").map(|n| n.raw()), Ok(u32::MAX - 1));
        assert_eq!(NullId::try_fresh(), Err(IdSpaceExhausted::Nulls));
        assert_eq!(NullId::try_named("y"), Err(IdSpaceExhausted::Nulls));
        let e = crate::parse_database("R(_a).").unwrap_err();
        assert!(e.message.contains("null id space exhausted"), "{e}");
        LOCAL_NEXT_NULL.set(None);
    }

    #[test]
    fn released_slots_are_reused_under_a_new_generation() {
        let mut interner = Interner::new(8, 0);
        let scope = LocalScope::new();
        let a = interner.intern("a", Some(&mut frame(&scope))).unwrap();
        assert_eq!(interner.intern("a", Some(&mut frame(&scope))), Ok(a), "idempotent");
        release(&mut interner, &scope);
        assert_eq!(interner.name(a), None, "released");
        assert!(interner.ids.is_empty());
        let b = interner.intern("b", Some(&mut frame(&scope))).unwrap();
        assert_eq!((b.index(), b.gen()), (a.index(), a.gen() + 1), "same slot, next generation");
        assert_ne!(a, b);
        assert_eq!(interner.name(a), None, "a stale symbol never names the new tenant");
        assert_eq!(interner.name(b), Some("b"));
        assert_eq!(interner.slots.len(), 1);
    }

    #[test]
    fn a_name_lives_while_any_scope_holds_it_or_forever_once_unscoped() {
        let mut interner = Interner::new(8, 0);
        let (s1, s2) = (LocalScope::new(), LocalScope::new());
        let a = interner.intern("a", Some(&mut frame(&s1))).unwrap();
        assert_eq!(interner.intern("a", Some(&mut frame(&s2))), Ok(a));
        release(&mut interner, &s1);
        assert_eq!(interner.name(a), Some("a"), "s2 still holds it");
        release(&mut interner, &s2);
        assert_eq!(interner.name(a), None);

        let p = interner.intern("p", Some(&mut frame(&s1))).unwrap();
        assert_eq!(interner.intern("p", None), Ok(p));
        release(&mut interner, &s1);
        assert_eq!(interner.name(p), Some("p"), "interned unscoped: permanent");
    }

    #[test]
    fn a_child_holds_only_what_its_parent_does_not() {
        let mut interner = Interner::new(8, 0);
        let parent = LocalScope::new();
        interner.intern("a", Some(&mut frame(&parent))).unwrap();
        let mut lazy = Frame { parent: parent.0.clone(), child: None };
        interner.intern("a", Some(&mut lazy)).unwrap();
        assert!(lazy.child.is_none(), "a name the parent holds creates no child");
        let b = interner.intern("b", Some(&mut lazy)).unwrap();
        let child = LocalScope(lazy.child.take().expect("a new name creates the child"));
        release(&mut interner, &child);
        assert_eq!(interner.name(b), None);
        assert_eq!(interner.ids.len(), 1, "the parent's name survives");
    }

    #[test]
    fn the_index_space_has_a_ceiling_and_exhausted_slots_retire() {
        let mut interner = Interner::new(2, 1);
        let scope = LocalScope::new();
        interner.intern("a", Some(&mut frame(&scope))).unwrap();
        assert_eq!(
            interner.intern("b", Some(&mut frame(&scope))),
            Err(IdSpaceExhausted::Symbols),
            "the last slot is kept for permanent names"
        );
        interner.intern("~p", None).unwrap();
        assert_eq!(interner.intern("c", None), Err(IdSpaceExhausted::Symbols));
        release(&mut interner, &scope);

        // Slot 0 is free again; at its last generation it retires.
        interner.slots[0].gen = MAX_GEN;
        let last = interner.intern("d", Some(&mut frame(&scope))).unwrap();
        assert_eq!((last.index(), last.gen()), (0, MAX_GEN));
        release(&mut interner, &scope);
        assert!(interner.free.is_empty(), "retired, never reissued");
        assert_eq!(interner.intern("e", Some(&mut frame(&scope))), Err(IdSpaceExhausted::Symbols));
        assert_eq!(interner.name(last), None);
    }

    #[test]
    fn resolving_a_released_symbol_panics_even_after_its_slot_is_reused() {
        let resolves = |sym: Symbol| std::panic::catch_unwind(|| sym.resolve()).is_ok();
        let scope = SymbolScope::new();
        let stale = enter(&scope, || Symbol::intern("value-rs-released-name"));
        assert!(resolves(stale));
        drop(scope);
        assert!(!resolves(stale), "released");
        // Concurrent tests intern too, so look for the reuse rather than
        // assume the next name takes the slot.
        let scope = SymbolScope::new();
        let reused = enter(&scope, || {
            (0..64)
                .map(|i| Symbol::intern(&format!("value-rs-reuse-{i}")))
                .find(|s| s.index() == stale.index())
        });
        if let Some(tenant) = reused {
            assert_ne!(tenant, stale);
            assert!(tenant.resolve().starts_with("value-rs-reuse-"));
        }
        assert!(!resolves(stale), "never names the slot's next tenant");
    }

    #[test]
    fn enter_keeps_what_a_failing_closure_interned_out_of_the_scope() {
        let scope = SymbolScope::new();
        let kept = scope.enter(|| Ok::<_, ()>(Symbol::intern("value-rs-kept")));
        let kept = kept.unwrap();
        let (sym, null) = scope
            .enter(|| Err::<(), _>((Symbol::intern("value-rs-lost"), NullId::named("value-rs-ln"))))
            .unwrap_err();
        assert!(std::panic::catch_unwind(|| sym.resolve()).is_err());
        assert_eq!(null.name(), None);
        assert_eq!(kept.resolve(), "value-rs-kept", "joined the scope");
        drop(scope);
        assert!(std::panic::catch_unwind(|| kept.resolve()).is_err());
    }

    #[test]
    fn scoped_names_and_nulls_are_freed_with_their_scope() {
        let scope = SymbolScope::new();
        let (c, n) = enter(&scope, || (Cst::new("value-rs-scoped-c"), NullId::named("value-rs-n")));
        let (r, child) = scope.child(|| Symbol::intern("value-rs-child-only"));
        let child = child.expect("a new name creates a child");
        assert!(scope.child(|| Cst::new("value-rs-scoped-c")).1.is_none(), "held already");
        assert_eq!(n.name().as_deref(), Some("value-rs-n"));
        drop(child);
        assert!(std::panic::catch_unwind(|| r.resolve()).is_err());
        assert_eq!(c.name(), "value-rs-scoped-c", "the parent still holds it");
        drop(scope);
        assert_eq!(n.name(), None, "the null's name went with its scope");
        assert!(std::panic::catch_unwind(|| c.name()).is_err());
        // Machine-made constants stay, whatever scope mints them.
        let fresh = enter(&SymbolScope::new(), || Cst::fresh_in("valuersfamily", 0));
        assert!(fresh.is_fresh());
    }

    #[test]
    fn a_symbol_keeps_values_at_eight_bytes() {
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<Value>(), 8);
    }

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
