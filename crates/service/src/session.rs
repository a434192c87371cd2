//! The `caz` command language: session state plus a parsed request layer.
//!
//! Historically this lived in the binary crate as a REPL-only module; it
//! is factored here so the same commands run in four places — the
//! interactive shell, piped stdin, the TCP server, and batch files. The
//! split matters for the server: [`Request::parse`] classifies a line
//! *before* execution, so read-only evaluation requests can be shipped
//! to the worker pool (and cached) while cheap state mutations run
//! inline on the connection's own [`Session`].

use caz_constraints::{parse_constraints, ConstraintSet};
use caz_arith::Ratio;
use caz_core::{mu_k, Series, SeriesCensus, SeriesCost, SeriesEngine, SuppEvent};
use caz_datalog::parse_program;
use crate::cache::CacheKey;
use caz_idb::{
    fnv1a_128, format_tuples, parse_args, parse_database_with, try_iso_canonical, Arg, Database,
    NullId, Symbol, SymbolScope, Tuple, Value,
};
use caz_logic::{parse_query, Query};
use caz_planner::{ExecOutcome, Features, QueryRef, Rejection, Route};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// The read-only evaluation commands (`naive`, `certain`, `best`, `mu`,
/// `cond`, `series`, `compare`), named by their command words. These
/// are the expensive requests — worst-case exponential in the number of
/// nulls — and the only ones a server schedules on the worker pool.
/// They are the planner's job kinds, variant for variant.
pub use caz_planner::PlanKind as EvalKind;

/// Reserved relation name used to embed the answer tuple into the
/// database before canonicalization, so that cache keys are invariant
/// under *consistent* renaming of nulls in the database and the tuple.
const ANSWER_REL: &str = "__caz_answer";

/// Interpreter state: the loaded database, named queries, constraints,
/// and Datalog programs.
///
/// A server clones the session into every evaluation job, so all of it
/// is shared copy-on-write: a clone costs five reference counts and
/// copies no state. `fact` builds a new `D` (and so a fresh
/// canonical-form memo); a definition or constraint copies its map or
/// `Σ` only while a job still holds the old snapshot.
///
/// The state is all the session keeps: no log of the lines that built
/// it. [`Session::replay_lines`] renders lines that rebuild it.
///
/// The names a client sends live as long as the state that holds them
/// (see [`caz_idb::SymbolScope`]): state commands run in the session's
/// scope, which its clones share and `clear` replaces, and each
/// evaluation runs in a child scope that ends with it.
#[derive(Default, Clone)]
pub struct Session {
    scope: SymbolScope,
    instance: Arc<Instance>,
    queries: Arc<BTreeSet<Definition>>,
    programs: Arc<BTreeMap<String, caz_datalog::Program>>,
    sigma: Arc<ConstraintSet>,
}

/// A first-order definition, kept as the one string it renders to:
/// `Z7() := ∃v ((R('p1', v) ∧ R('p3', v)))`. The same bytes serve as
/// the definition's part of a cache key (after `fo:`), as its replay
/// line (after `query `), and as what a job parses where it runs:
/// [`caz_logic::parse_query`] reads the rendered syntax back to the
/// query it came from. A set of definitions is ordered by the name at
/// the start of each, so it looks a definition up by its name.
#[derive(Clone, Debug)]
struct Definition(Box<str>);

impl Definition {
    fn of(q: &Query) -> Definition {
        Definition(q.to_string().into_boxed_str())
    }

    /// The rendered text.
    fn text(&self) -> &str {
        &self.0
    }

    /// The query's name: the text up to its head's `(`.
    fn name(&self) -> &str {
        self.0.split_once('(').map_or(&self.0, |(name, _)| name)
    }

    /// The query's arity: the variables between the head's parentheses,
    /// which hold identifiers and `, ` only.
    fn arity(&self) -> usize {
        let head = self.0.split_once('(').and_then(|(_, rest)| rest.split_once(')'));
        match head {
            Some(("", _)) | None => 0,
            Some((vars, _)) => vars.split(',').count(),
        }
    }

    /// The query itself: parsed again, in the caller's scope.
    fn parse(&self) -> Result<Query, String> {
        parse_query(&self.0).map_err(|e| format!("definition {}: {e}", self.name()))
    }
}

impl Borrow<str> for Definition {
    fn borrow(&self) -> &str {
        self.name()
    }
}

impl PartialEq for Definition {
    fn eq(&self, other: &Definition) -> bool {
        self.name() == other.name()
    }
}

impl Eq for Definition {}

impl PartialOrd for Definition {
    fn partial_cmp(&self, other: &Definition) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Definition {
    fn cmp(&self, other: &Definition) -> Ordering {
        self.name().cmp(other.name())
    }
}

/// The database `D` with the session's names for its nulls and `D`'s
/// memoized canonical form. Never mutated once built, so the memo can
/// only ever describe this `D`.
#[derive(Default)]
struct Instance {
    db: Database,
    nulls: BTreeMap<String, NullId>,
    canon: CanonMemo,
}

/// The canonical form of `D ∪ {__caz_answer(ā)}` for the answer tuple ā
/// of the latest keyed request against one `D`: its text and FNV-1a 128
/// digest, or `None` when the refinement search exhausted its budget
/// (stored too, so that search runs once). A request whose `D` and ā are
/// unchanged since the session's previous keyed request canonicalizes
/// nothing.
#[derive(Default, Debug)]
struct CanonMemo(Mutex<Option<MemoEntry>>);

/// The memoized tuple, its canonical form, and the scope of the request
/// that keyed it: ā's names must outlive the request, or a freed and
/// reused slot could make another tuple `peek` equal to it.
type MemoEntry = (Tuple, Option<Canon>, Option<SymbolScope>);

/// A canonical form's text and digest.
type Canon = (Arc<str>, u128);

impl CanonMemo {
    /// Every write stores a whole entry, so a poisoned lock still guards
    /// a valid one.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<MemoEntry>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True until the first keyed request against this `D`.
    fn is_empty(&self) -> bool {
        self.lock().is_none()
    }

    /// What the memo holds for `answer`, never computing anything:
    /// `Some(form)` when `answer` is the memoized tuple (`form` is `None`
    /// when the search exhausted its budget), `None` when the memo is
    /// empty or holds another tuple.
    fn peek(&self, answer: &Tuple) -> Option<Option<Canon>> {
        match &*self.lock() {
            Some((memo, canon, _)) if memo == answer => Some(canon.clone()),
            _ => None,
        }
    }

    /// The canonical form of `db` with `answer` embedded, computed at
    /// most once per `answer` in a row. Computed outside the lock, so a
    /// long search never blocks another job's lookup.
    fn get(&self, db: &Database, answer: &Tuple) -> Option<Canon> {
        if let Some(canon) = self.peek(answer) {
            return canon;
        }
        let mut ext = db.clone();
        // Permanent, so that embedding ā never makes a request hold a
        // name of its own.
        Symbol::permanent(ANSWER_REL);
        ext.insert(ANSWER_REL, answer.clone());
        let canon = try_iso_canonical(&ext).map(|text| {
            let digest = fnv1a_128(text.as_bytes());
            (Arc::from(text), digest)
        });
        *self.lock() = Some((answer.clone(), canon.clone(), SymbolScope::current()));
        canon
    }
}

/// Outcome of one command.
pub enum Reply {
    /// Text to print.
    Text(String),
    /// Leave the shell / close the connection.
    Quit,
}

/// A read-only evaluation request: the kind plus its raw argument text
/// (name, optional tuple literals, series length). Arguments stay
/// unparsed because tuple literals resolve against per-session null
/// names; `Session::resolve` parses them.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// Which evaluation to run.
    pub kind: EvalKind,
    /// Raw argument text after the command word.
    pub args: String,
}

/// One parsed command line.
#[derive(Clone, Debug)]
pub enum Request {
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
    /// `clear` — reset the session.
    Clear,
    /// `db` — show the database.
    ShowDb,
    /// `sigma` — show the constraints.
    ShowSigma,
    /// `stats` — server metrics (only meaningful under a server).
    Stats,
    /// `fact <tuples>` — add facts.
    AddFacts(String),
    /// `query <def>` — define a query.
    DefineQuery(String),
    /// `datalog <rules>` — define a program.
    DefineProgram(String),
    /// `constraint <line>` — add constraints.
    AddConstraint(String),
    /// A read-only evaluation (pool-schedulable under a server).
    Eval(EvalRequest),
    /// `plan <eval command>` / `explain <eval command>` — ask the
    /// planner which route it would take for the given evaluation
    /// without running it. `plan` answers one summary line; `explain`
    /// additionally reports the classification features and every
    /// rejected route with the reason its precondition failed.
    Plan {
        /// `explain` (full report) vs `plan` (summary line).
        explain: bool,
        /// The evaluation command line being planned.
        target: String,
    },
    /// `eval* <job>TAB<job>…` — a vectorized batch of read-only
    /// evaluations, each job a full eval command line (escaped per
    /// [`crate::proto::escape`]). A server fans these out across its
    /// worker pool and replies one index-tagged chunk per job. The jobs
    /// stay raw strings here: each is parsed (and rejected)
    /// individually via [`parse_eval_job`], so one malformed job yields
    /// one `err*` chunk instead of failing the whole line.
    EvalMulti(Vec<String>),
}

/// Parse one `eval*` job line into its [`EvalRequest`]. Only read-only
/// evaluation commands qualify — jobs run concurrently against a
/// snapshot of the session, so state mutations are excluded by
/// construction — and `series` is excluded because its chunked reply
/// cannot nest inside the vectorized reply group.
pub fn parse_eval_job(line: &str) -> Result<EvalRequest, String> {
    match Request::parse(line)? {
        Some(Request::Eval(ev)) if ev.kind == EvalKind::Series => {
            Err("series streams its own chunked reply and cannot appear in eval*".into())
        }
        Some(Request::Eval(ev)) => Ok(ev),
        Some(_) => Err(format!(
            "eval* jobs must be read-only evaluations \
             (naive/certain/best/mu/cond/compare), got {line:?}"
        )),
        None => Err("empty eval* job".into()),
    }
}

const HELP: &str = "\
commands:
  fact <tuples>              add facts, e.g.  fact R(a, _x). R(b, c).
  db                         show the database
  clear                      reset the session
  query <def>                define a query, e.g.  query Q(x) := R(x, x)
  datalog <rules>            define a program on ONE line, ';'-separated, e.g.
                             datalog p(x,y) :- e(x,y); p(x,z) :- p(x,y), e(y,z)
  constraint <line>          add a constraint, e.g.  constraint fd R: 1 -> 2
  sigma                      show the constraints
  naive <name>               naïve evaluation (= almost certainly true answers)
  certain <name>             certain answers
  best <name>                best answers (⊴-maximal)
  mu <name> [tuple]          exact measure μ(Q, D[, ā]), e.g.  mu Q (a, _x)
  cond <name> [tuple]        conditional measure μ(Q | Σ, D[, ā]) (alias: mucond)
  series <name> <k>          the finite sequence μ¹..μᵏ (a server streams one
                             reply chunk per k)
  eval* <job>TAB<job>…       vectorized evaluation: many read-only jobs on one
                             line, TAB-separated; a server fans them out and
                             replies index-tagged chunks
  compare <name> <t1> <t2>   the orders between two answers
  plan <eval command>        which route the planner picks, e.g.  plan cond Q
  explain <eval command>     the full plan: route, features, rejected routes
  stats                      server statistics (serve/batch mode)
  help                       this text
  quit                       exit";

impl Request {
    /// Parse one command line. `Ok(None)` for blank lines and comments.
    pub fn parse(line: &str) -> Result<Option<Request>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let eval = |kind| {
            Ok(Some(Request::Eval(EvalRequest {
                kind,
                args: rest.to_string(),
            })))
        };
        match cmd {
            "help" => Ok(Some(Request::Help)),
            "quit" | "exit" => Ok(Some(Request::Quit)),
            "clear" => Ok(Some(Request::Clear)),
            "db" => Ok(Some(Request::ShowDb)),
            "sigma" => Ok(Some(Request::ShowSigma)),
            "stats" => Ok(Some(Request::Stats)),
            "fact" => Ok(Some(Request::AddFacts(rest.to_string()))),
            "query" => Ok(Some(Request::DefineQuery(rest.to_string()))),
            "datalog" => Ok(Some(Request::DefineProgram(rest.to_string()))),
            "constraint" => Ok(Some(Request::AddConstraint(rest.to_string()))),
            "eval*" => {
                if rest.is_empty() {
                    return Err("eval* needs at least one job".into());
                }
                Ok(Some(Request::EvalMulti(crate::proto::split_jobs(rest))))
            }
            "plan" => Ok(Some(Request::Plan { explain: false, target: rest.to_string() })),
            "explain" => Ok(Some(Request::Plan { explain: true, target: rest.to_string() })),
            "mucond" => eval(EvalKind::Cond),
            other => match EvalKind::ALL.into_iter().find(|kind| kind.name() == other) {
                Some(kind) => eval(kind),
                None => Err(format!("unknown command {other:?}; try 'help'")),
            },
        }
    }
}

impl Session {
    /// Create an empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// Execute one command line: parse, then apply.
    pub fn execute(&mut self, line: &str) -> Result<Reply, String> {
        match Request::parse(line)? {
            None => Ok(Reply::Text(String::new())),
            Some(req) => self.apply(&req),
        }
    }

    /// Apply a parsed request against this session.
    pub fn apply(&mut self, req: &Request) -> Result<Reply, String> {
        match req {
            Request::Help => Ok(Reply::Text(HELP.to_string())),
            Request::Quit => Ok(Reply::Quit),
            Request::Clear => {
                *self = Session::new();
                Ok(Reply::Text("session cleared".into()))
            }
            Request::ShowDb => Ok(Reply::Text(format!("{}", self.instance.db))),
            Request::ShowSigma => Ok(Reply::Text(format!("{}", self.sigma))),
            Request::Stats => Err("stats is only available in serve/batch mode".into()),
            Request::AddFacts(src) => self.mutate(src, Session::add_facts),
            Request::DefineQuery(src) => self.mutate(src, Session::add_query),
            Request::DefineProgram(src) => self.mutate(src, Session::add_program),
            Request::AddConstraint(src) => self.mutate(src, Session::add_constraint),
            Request::Eval(ev) => self.eval_planned(ev, &mut |_| {}).map(Reply::Text),
            Request::Plan { explain, target } => {
                self.plan_for(target).map(|r| Reply::Text(r.text(*explain)))
            }
            // Outside a server there is no pool to fan out over: run the
            // jobs sequentially and tag each output line with its index,
            // mirroring the wire format's tagged chunks.
            Request::EvalMulti(jobs) => {
                let mut out = String::new();
                for (i, job) in jobs.iter().enumerate() {
                    let result =
                        parse_eval_job(job).and_then(|ev| self.eval_planned(&ev, &mut |_| {}));
                    if i > 0 {
                        out.push('\n');
                    }
                    match result {
                        Ok(text) => write!(out, "[{i}] {text}").unwrap(),
                        Err(e) => write!(out, "[{i}] error: {e}").unwrap(),
                    }
                }
                Ok(Reply::Text(out))
            }
        }
    }

    /// Run `f` as one evaluation request against this session: the names
    /// it interns that the session does not hold (tuple literals, and
    /// names the engines derive from them) live in a child scope that
    /// ends with `f`, unless the canonical-form memo keeps it. A request
    /// that interns nothing new creates no scope.
    pub(crate) fn in_request<R>(&self, f: impl FnOnce() -> R) -> R {
        self.scope.child(f).0
    }

    /// Apply one state mutation in the session's scope. A line that
    /// fails keeps none of the names it interned.
    fn mutate(
        &mut self,
        src: &str,
        apply: fn(&mut Session, &str) -> Result<Reply, String>,
    ) -> Result<Reply, String> {
        let scope = self.scope.clone();
        scope.enter(|| apply(self, src))
    }

    /// Lines that rebuild this session's state when a fresh session runs
    /// them in order, rendered from the state itself:
    ///
    /// - `fact` lines holding `D`, each null under the session's name
    ///   for it (`_` for an anonymous one), at most
    ///   [`MAX_LINE_BYTES`](crate::reactor::MAX_LINE_BYTES) per line so a
    ///   server reads each one;
    /// - one `constraint` line per member of `Σ`, in order;
    /// - one `datalog` line per program;
    /// - one `query` line per first-order definition, its rendered text.
    ///
    /// The replayed session answers every request with the same bytes
    /// and the same cache key: the facts come in an order in which the
    /// nulls are first named in the order of their ids, which is the
    /// order reports list them in. Nulls named only `_` are the
    /// exception: their rendering names a process-wide id.
    pub fn replay_lines(&self) -> Vec<String> {
        let mut lines = fact_lines(&self.instance, crate::reactor::MAX_LINE_BYTES);
        lines.extend(self.sigma.iter().map(|c| format!("constraint {c}")));
        // A program renders one rule per line; `datalog` reads `;` as a
        // line break.
        let program = |p: &caz_datalog::Program| p.to_string().trim_end().replace('\n', "; ");
        lines.extend(self.programs.values().map(|p| format!("datalog {}", program(p))));
        lines.extend(self.queries.iter().map(|d| format!("query {}", d.text())));
        lines
    }

    /// Run a read-only evaluation request on the forced enumeration
    /// route — the general engines, with no planning — the reference
    /// every planned reply must match byte for byte. Takes `&self`: a
    /// server clones the session state into a worker job, so evaluation
    /// must not (and cannot) touch session state.
    pub fn eval(&self, req: &EvalRequest) -> Result<String, String> {
        self.in_request(|| self.resolve(req)?.execute(false, &mut |_| {}, &mut ()))
    }

    /// The isomorphism-invariant cache key of `req` (see
    /// `Job::cache_key`), or `None` when the request does not resolve
    /// or is not cacheable.
    pub fn cache_key(&self, req: &EvalRequest) -> Option<CacheKey> {
        self.resolve(req).ok()?.cache_key()
    }

    /// [`Session::cache_key`] read from the canonical-form memo alone:
    /// `Some` only when the memo already holds `D`'s canonical form for
    /// `req`'s answer tuple, and that form is at most `max_canon_bytes`
    /// long. Nothing is canonicalized, and an empty memo skips even
    /// resolving `req`, so the probe is cheap enough for a server's
    /// reactor thread. Whenever it is `Some`, it equals `cache_key(req)`.
    pub fn memoized_cache_key(
        &self,
        req: &EvalRequest,
        max_canon_bytes: usize,
    ) -> Option<CacheKey> {
        if self.instance.canon.is_empty() {
            return None;
        }
        self.resolve(req).ok()?.memoized_key(max_canon_bytes)
    }

    fn add_facts(&mut self, src: &str) -> Result<Reply, String> {
        // Parse against the session's null names so `_x` stays the same
        // null across `fact` commands; only new names mint a null.
        let parsed = parse_database_with(src, &self.instance.nulls).map_err(|e| e.to_string())?;
        if parsed.db.relation(ANSWER_REL).is_some() {
            return Err(format!("relation name {ANSWER_REL} is reserved"));
        }
        // The parser checks arities within the line; check them against
        // `D` too, before the union asserts they agree.
        for rel in parsed.db.relations() {
            if let Some(existing) = self.instance.db.relation_sym(rel.name()) {
                if existing.arity() != rel.arity() {
                    return Err(format!(
                        "relation {} used with arity {}, previously {}",
                        rel.name(),
                        rel.arity(),
                        existing.arity()
                    ));
                }
            }
        }
        let mut nulls = self.instance.nulls.clone();
        nulls.extend(parsed.nulls);
        let added = parsed.db.len();
        // A new `D` is a new instance with an empty memo; snapshots keep
        // the old one.
        let db = self.instance.db.union(&parsed.db);
        self.instance = Arc::new(Instance { db, nulls, canon: CanonMemo::default() });
        Ok(Reply::Text(format!("{added} fact(s) added")))
    }

    fn add_query(&mut self, src: &str) -> Result<Reply, String> {
        let q = parse_query(src).map_err(|e| e.to_string())?;
        Arc::make_mut(&mut self.queries).replace(Definition::of(&q));
        Ok(Reply::Text(format!("query {} defined", q.name)))
    }

    fn add_program(&mut self, src: &str) -> Result<Reply, String> {
        let multi = src.replace(';', "\n");
        let p = parse_program(&multi).map_err(|e| e.to_string())?;
        let name = p.output.resolve();
        Arc::make_mut(&mut self.programs).insert(name.clone(), p);
        Ok(Reply::Text(format!("program {name} defined")))
    }

    fn add_constraint(&mut self, src: &str) -> Result<Reply, String> {
        let set = parse_constraints(src).map_err(|e| e.to_string())?;
        let sigma = Arc::make_mut(&mut self.sigma);
        for c in set.iter() {
            sigma.push(c.clone());
        }
        Ok(Reply::Text(format!("{} constraint(s) added", set.len())))
    }

    fn query(&self, name: &str) -> Result<&Definition, String> {
        self.queries
            .get(name)
            .ok_or_else(|| format!("no query named {name:?} (define one with 'query')"))
    }

    /// Resolve a name with the evaluators' shadowing: programs first,
    /// then queries.
    fn query_ref(&self, name: &str) -> Result<Def<'_>, String> {
        if let Some(p) = self.programs.get(name) {
            Ok(Def::Datalog(p))
        } else {
            self.query(name).map(Def::Fo)
        }
    }

    /// Parse a tuple literal like `(a, _x)` with `fact`'s argument
    /// grammar, resolving nulls against the session's names. Every
    /// constant is then an identifier or an integer, which no null's
    /// canonical name (`?i`) or fresh constant (`~…`) can be — so the
    /// canonical text a cache key embeds stays injective.
    fn tuple(&self, src: &str) -> Result<Tuple, String> {
        let src = src.trim();
        if !(src.starts_with('(') && src.ends_with(')')) {
            return Err(format!("expected a tuple like (a, _x), got {src:?}"));
        }
        let args = parse_args(src).map_err(|e| format!("tuple {src}: {e}"))?;
        let values = args.into_iter().map(|arg| match arg {
            Arg::Const(c) => Ok(Value::Const(c)),
            Arg::Null(name) => match self.instance.nulls.get(&name) {
                Some(id) => Ok(Value::Null(*id)),
                None => Err(format!("unknown null _{name}")),
            },
        });
        values.collect::<Result<_, _>>().map(Tuple::new)
    }

    /// Resolve an evaluation request into a [`Job`]. This is the one
    /// parser of evaluation arguments — the name, the tuple literals and
    /// the series length — and it owns every canonical error text:
    /// malformed arguments, an unknown name, an arity mismatch, and for
    /// `cond` a constraint column outside its relation in `D`. It only
    /// borrows from the session: nothing is evaluated and no definition
    /// is parsed or cloned, so resolving a cache hit stays cheap.
    pub(crate) fn resolve(&self, req: &EvalRequest) -> Result<Job<'_>, String> {
        let mut series_len = None;
        let mut tuple2 = None;
        let (def, tuple) = match req.kind {
            EvalKind::Naive | EvalKind::Certain => (self.query_ref(&req.args)?, None),
            // The support order ranks answers of first-order queries, so
            // `best` and `compare` look up queries only.
            EvalKind::Best => (Def::Fo(self.query(&req.args)?), None),
            EvalKind::Compare => {
                let open = req.args.find('(').ok_or("usage: compare <name> (t1) (t2)")?;
                let tuples = &req.args[open..];
                let mid = tuples.find(')').ok_or("expected two tuples")? + 1;
                let t1 = self.tuple(&tuples[..mid])?;
                tuple2 = Some(self.tuple(&tuples[mid..])?);
                (Def::Fo(self.query(req.args[..open].trim())?), Some(t1))
            }
            EvalKind::Mu | EvalKind::Cond | EvalKind::Series => {
                let mut head = req.args.as_str();
                if req.kind == EvalKind::Series {
                    let (name_tuple, k_src) =
                        head.rsplit_once(char::is_whitespace).ok_or("usage: series <name> <k>")?;
                    let k: usize = k_src.trim().parse().map_err(|_| "k must be a number")?;
                    if k == 0 || k > 24 {
                        return Err("k must be between 1 and 24".into());
                    }
                    series_len = Some(k);
                    head = name_tuple;
                }
                let (name, tuple_src) = split_name_tuple(head);
                let tuple = tuple_src.map(|s| self.tuple(s)).transpose()?;
                let def = self.query_ref(name)?;
                check_arity(name, def, tuple.as_ref())?;
                (def, tuple)
            }
        };
        // Only `cond` reads Σ, and every engine indexes D's tuples by
        // Σ's columns: check them once, here.
        let db = &self.instance.db;
        if req.kind == EvalKind::Cond {
            self.sigma.check_columns(&db.schema())?;
        }
        Ok(Job {
            kind: req.kind,
            def,
            sigma: &self.sigma,
            db,
            tuple,
            tuple2,
            series_len,
            canon: &self.instance.canon,
        })
    }

    /// Evaluate through the planner: resolve the request, take the
    /// cheapest theorem-licensed route (the enumeration route when none
    /// applies) and, for `series`, the cheaper exact engine. Replies are
    /// byte-identical to [`Session::eval`]'s — every route renders
    /// through the same formatting helpers, and the theorems guarantee
    /// equal values.
    ///
    /// `note_route` fires exactly once per call, *before* any
    /// evaluation work, so a server can attribute the job to its route
    /// even if evaluation later panics. A request that does not resolve
    /// is noted as the enumeration route.
    pub fn eval_planned(
        &self,
        req: &EvalRequest,
        note_route: &mut dyn FnMut(Route),
    ) -> Result<String, String> {
        self.in_request(|| {
            let job = self.resolve(req).inspect_err(|_| note_route(Route::EnumerationFallback))?;
            job.execute(true, note_route, &mut ())
        })
    }

    /// Evaluate a `series` request on the enumeration engine,
    /// incrementally: `emit(k, row)` fires with one rendered table row
    /// as soon as that μᵏ is computed (ascending `k`). Returns the
    /// aggregated text, byte-identical to what [`Session::eval`]
    /// produces for the same request.
    pub fn eval_series_chunks(
        &self,
        rest: &str,
        mut emit: &mut dyn FnMut(usize, &str),
    ) -> Result<String, String> {
        let req = EvalRequest { kind: EvalKind::Series, args: rest.to_string() };
        self.in_request(|| self.resolve(&req)?.execute(false, &mut |_| {}, &mut emit))
    }

    /// Answer a `plan`/`explain` request: parse the target as an
    /// evaluation command, resolve it into a job, and report the
    /// planner's decision without executing anything.
    pub fn plan_for(&self, target: &str) -> Result<PlanReport, String> {
        let Some(Request::Eval(ev)) = Request::parse(target)? else {
            return Err("plan/explain take an evaluation command, e.g.  plan cond Q".into());
        };
        self.in_request(|| {
            let job = self.resolve(&ev)?;
            job.planned(|plan_job| {
                let plan = caz_planner::plan(plan_job);
                let series = job
                    .series_len
                    .map(|k| SeriesCost::of(&*caz_planner::event(plan_job), job.db, k));
                let certain = (job.kind == EvalKind::Certain)
                    .then(|| caz_planner::corollary3(plan_job));
                Ok(PlanReport {
                    route: plan.route,
                    features: plan.features,
                    rejected: plan.rejected,
                    series,
                    certain,
                })
            })
        })
    }
}

/// `D` as `fact` lines of at most `max_bytes` each (a longer fact gets a
/// line of its own), for [`Session::replay_lines`]. Each null renders
/// under the session's name for it, or as `_` when it has none.
///
/// The facts come in an order in which the nulls are first named in the
/// order of their ids, so a fresh session replaying them mints ids in
/// the same order. Such an order exists: a session mints a null where a
/// `fact` line first names it, so the fact of `D` holding that first
/// mention names before it only nulls with smaller ids, and after it
/// only older nulls and the ones its line minted next, in order. The
/// walk below emits, for the unnamed null with the smallest id, a fact
/// that names its unnamed nulls in that order.
fn fact_lines(instance: &Instance, max_bytes: usize) -> Vec<String> {
    let names: BTreeMap<NullId, &str> =
        instance.nulls.iter().map(|(name, &id)| (id, name.as_str())).collect();
    let ids: Vec<NullId> = instance.db.nulls().into_iter().collect();
    let rank = |id: NullId| ids.binary_search(&id).unwrap_or(0);
    let mut rels: Vec<_> = instance.db.relations().collect();
    rels.sort_by_key(|r| r.name().resolve());
    let facts: Vec<(Symbol, &Tuple)> =
        rels.iter().flat_map(|r| r.iter().map(move |t| (r.name(), t))).collect();
    // The facts holding each null.
    let mut holding: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    for (i, (_, t)) in facts.iter().enumerate() {
        for n in t.iter().filter_map(Value::as_null) {
            let held = &mut holding[rank(n)];
            if held.last() != Some(&i) {
                held.push(i);
            }
        }
    }
    let mut done: Vec<bool> = facts.iter().map(|(_, t)| t.is_complete()).collect();
    let mut order: Vec<usize> = (0..facts.len()).filter(|&i| done[i]).collect();
    let mut named = vec![false; ids.len()];
    let mut next = 0;
    loop {
        while next < ids.len() && named[next] {
            next += 1;
        }
        if next == ids.len() {
            break;
        }
        // Whether fact `i` names its unnamed nulls in id order.
        let in_order = |i: usize| {
            let mut want = next;
            facts[i].1.iter().filter_map(Value::as_null).all(|n| {
                let r = rank(n);
                if named[r] || r < want {
                    return true;
                }
                if r != want {
                    return false;
                }
                want += 1;
                while want < ids.len() && named[want] {
                    want += 1;
                }
                true
            })
        };
        let open: Vec<usize> = holding[next].iter().copied().filter(|&i| !done[i]).collect();
        let Some(pick) = open.iter().copied().find(|&i| in_order(i)).or(open.first().copied())
        else {
            break;
        };
        done[pick] = true;
        order.push(pick);
        for n in facts[pick].1.iter().filter_map(Value::as_null) {
            named[rank(n)] = true;
        }
    }
    order.extend((0..facts.len()).filter(|&i| !done[i]));

    let mut lines = Vec::new();
    let mut line = String::new();
    for i in order {
        let (rel, tuple) = facts[i];
        let mut fact = format!("{rel}(");
        for (k, v) in tuple.iter().enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            match v {
                Value::Const(c) => write!(fact, "{sep}{c}"),
                Value::Null(n) => write!(fact, "{sep}_{}", names.get(n).copied().unwrap_or("")),
            }
            .expect("formatting into a String");
        }
        fact.push_str(").");
        if !line.is_empty() && line.len() + 1 + fact.len() > max_bytes {
            lines.push(std::mem::take(&mut line));
        }
        line.push_str(if line.is_empty() { "fact " } else { " " });
        line.push_str(&fact);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

/// Split `name (tuple)` into the name and the tuple literal, if any.
fn split_name_tuple(rest: &str) -> (&str, Option<&str>) {
    match rest.find('(') {
        Some(i) if rest[..i].trim() != "" => (rest[..i].trim(), Some(rest[i..].trim())),
        _ => (rest.trim(), None),
    }
}

/// Check a measure job's answer tuple against its query: a program
/// takes a tuple of its output arity (none for arity 0), a first-order
/// query one of its own arity, or none when it is Boolean.
fn check_arity(name: &str, def: Def<'_>, tuple: Option<&Tuple>) -> Result<(), String> {
    let got = tuple.map_or(0, Tuple::arity);
    match def {
        Def::Datalog(p) if got != p.output_arity => Err(format!(
            "program {name} has output arity {}, tuple has {got}",
            p.output_arity
        )),
        Def::Fo(d) if tuple.is_none() && d.arity() > 0 => {
            Err(format!("query {name} needs a tuple, e.g.  mu {name} (a, b)"))
        }
        Def::Fo(d) if got != d.arity() => {
            Err(format!("query {name} has arity {}, tuple has {got}", d.arity()))
        }
        _ => Ok(()),
    }
}

/// The definition a job evaluates: a first-order query's rendered text,
/// or a Datalog program.
#[derive(Clone, Copy, Debug)]
enum Def<'s> {
    Fo(&'s Definition),
    Datalog(&'s caz_datalog::Program),
}

/// One resolved evaluation: what [`Session::resolve`] makes of an
/// [`EvalRequest`], and what the cache key, the planner,
/// `plan`/`explain` and execution all read. It borrows the definition,
/// `Σ`, `D` and `D`'s canonical-form memo from the session; a
/// first-order definition is parsed only by [`Job::planned`], so
/// keying a job parses nothing.
#[derive(Clone, Debug)]
pub(crate) struct Job<'s> {
    kind: EvalKind,
    def: Def<'s>,
    sigma: &'s ConstraintSet,
    db: &'s Database,
    /// The answer tuple `ā`, when the command supplies one.
    tuple: Option<Tuple>,
    /// The second tuple of a `compare` job.
    tuple2: Option<Tuple>,
    /// For `series` jobs, the length `k` of `μ¹..μᵏ`.
    pub(crate) series_len: Option<usize>,
    /// `D`'s canonical form for the latest answer tuple keyed.
    canon: &'s CanonMemo,
}

impl Job<'_> {
    /// An isomorphism-invariant cache key for this job, or `None` when
    /// it is not cacheable. Cacheable are the evaluations whose output
    /// never mentions session-local null *names*: `mu`, `cond`, and
    /// `series` print pure rationals, so two sessions whose databases
    /// (and answer tuples) differ only by a bijective renaming of nulls
    /// must — and do — share one cache entry. `naive`, `certain`,
    /// `best`, and `compare` print tuples containing session-specific
    /// null names and stay uncached.
    ///
    /// The text is the kind tag, the definition, `Σ` (for `cond`) and
    /// the canonical database, `\u{1}`-separated; persistent stores and
    /// replicas keep it verbatim. The key carries the FNV-1a 128 digest
    /// of the canonical form alongside the text; the sharded cache
    /// routes on the digest's high bits, so renaming-equivalent requests
    /// land in the same shard. Both come from the session's memo when
    /// `D` and ā are those of its previous keyed request.
    pub(crate) fn cache_key(&self) -> Option<CacheKey> {
        self.key(|answer| self.canon.get(self.db, answer))
    }

    /// [`Job::cache_key`] from the memo alone: `None` unless the memo
    /// holds the canonical form for this job's answer tuple and it is at
    /// most `max_canon_bytes` long. Never canonicalizes.
    pub(crate) fn memoized_key(&self, max_canon_bytes: usize) -> Option<CacheKey> {
        let form = |answer: &Tuple| self.canon.peek(answer).flatten();
        self.key(|answer| form(answer).filter(|(text, _)| text.len() <= max_canon_bytes))
    }

    /// The one key builder: `canon` supplies the canonical form of `D`
    /// with the answer tuple embedded.
    fn key(&self, canon: impl FnOnce(&Tuple) -> Option<Canon>) -> Option<CacheKey> {
        let mut text = match (self.kind, self.series_len) {
            (EvalKind::Mu, _) => String::from("mu"),
            (EvalKind::Cond, _) => String::from("cond"),
            (EvalKind::Series, Some(k)) => format!("series:{k}"),
            _ => return None,
        };
        if self.db.relation(ANSWER_REL).is_some() {
            return None; // user squatted on the reserved name; don't cache
        }
        // Embed the answer tuple into the database so its nulls are
        // renamed consistently with the database's during minimization.
        let empty = Tuple::empty();
        let (canon, shard_hash) = canon(self.tuple.as_ref().unwrap_or(&empty))?;
        // Key on the *definition*, not the name: two sessions may bind
        // the same name to different queries. A first-order definition
        // is kept rendered, so its bytes are copied, not formatted.
        match self.def {
            Def::Fo(d) => write!(text, "\u{1}fo:{}\u{1}", d.text()),
            Def::Datalog(p) => write!(text, "\u{1}dl:{p}\u{1}"),
        }
        .ok()?;
        if self.kind == EvalKind::Cond {
            write!(text, "{}", self.sigma).ok()?;
        }
        write!(text, "\u{1}{canon}").ok()?;
        Some(CacheKey { text, shard_hash })
    }

    /// Parse the definition, in the caller's scope, and hand `f` the
    /// planner's view of this job: kind, query, `Σ`, `D` and answer
    /// tuples. Planning and executing a job each parse it once. The
    /// text parses: it is a parsed query's rendering, and the session's
    /// scope holds every name in it.
    fn planned<R>(
        &self,
        f: impl FnOnce(&caz_planner::Job<'_>) -> Result<R, String>,
    ) -> Result<R, String> {
        let parsed;
        let query = match self.def {
            Def::Fo(d) => {
                parsed = d.parse()?;
                QueryRef::Fo(&parsed)
            }
            Def::Datalog(p) => QueryRef::Datalog(p),
        };
        f(&caz_planner::Job {
            kind: self.kind,
            query,
            sigma: self.sigma,
            db: self.db,
            tuple: self.tuple.clone(),
            tuple2: self.tuple2.clone(),
        })
    }

    /// Execute the job and render its reply. `planned` takes the
    /// planner's route and, for `series`, the cheaper exact engine by
    /// [`SeriesCost`]; without it the job runs on the forced
    /// enumeration route, and a `series` enumerates. `note_route` fires
    /// once with the route, before any evaluation work. A `series`
    /// job's rows go through `sink`, which also runs them.
    pub(crate) fn execute(
        &self,
        planned: bool,
        note_route: &mut dyn FnMut(Route),
        sink: &mut dyn Sink,
    ) -> Result<String, String> {
        self.planned(|job| execute_planned(job, self.series_len, planned, note_route, sink))
    }
}

/// [`Job::execute`] on the parsed job. A planned `certain` job whose
/// query Corollary 3 covers is answered by its naïve answers, on the
/// enumeration route.
fn execute_planned(
    job: &caz_planner::Job<'_>,
    series_len: Option<usize>,
    planned: bool,
    note_route: &mut dyn FnMut(Route),
    sink: &mut dyn Sink,
) -> Result<String, String> {
    let route = if planned { caz_planner::plan(job).route } else { Route::EnumerationFallback };
    note_route(route);
    if let Some(k_max) = series_len {
        let event = caz_planner::event(job);
        let engine = if planned {
            SeriesCost::of(&*event, job.db, k_max).engine()
        } else {
            SeriesEngine::Enumeration
        };
        return sink.rows(engine, event, job.db, k_max);
    }
    let corollary3 = planned && caz_planner::corollary3(job).is_ok();
    let outcome = if corollary3 {
        sink.corollary3();
        caz_planner::certain_by_corollary3(job)?
    } else {
        caz_planner::execute(job, route)?
    };
    Ok(match outcome {
        ExecOutcome::Measure(v) if job.kind == EvalKind::Cond => format!("μ(Q | Σ, D) = {v}"),
        ExecOutcome::Measure(v) => format!("μ(Q, D) = {v}"),
        ExecOutcome::Tuples(ts) => format_tuples(&ts),
        // `d12` is `t1 ⊴ t2`, `d21` is `t2 ⊴ t1`.
        ExecOutcome::Comparison { d12, d21 } => {
            let (Some(t1), Some(t2)) = (&job.tuple, &job.tuple2) else {
                return Err("compare needs two tuples".into());
            };
            match (d12, d21) {
                (true, true) => "equivalent support".to_string(),
                (true, false) => format!("{t1} ⊲ {t2} ({t2} is strictly better)"),
                (false, true) => format!("{t2} ⊲ {t1} ({t1} is strictly better)"),
                (false, false) => "incomparable".to_string(),
            }
        }
    })
}

/// Where a `series` job's rows go as they are computed, and who hears
/// which exact engine answered a job on the enumeration route. The
/// aggregate reply carries every row either way; a server streams each
/// row as a reply chunk, may run the enumeration on an engine of its
/// own, and counts the engines.
pub(crate) trait Sink {
    /// Row `k`, rendered, as soon as `μᵏ` is known.
    fn row(&mut self, _k: usize, _row: &str) {}

    /// A `certain` job is answered by Corollary 3's naïve evaluation
    /// ([`caz_planner::COROLLARY3_NAIVE`]).
    fn corollary3(&mut self) {}

    /// Compute `μ¹..μ^k_max` on `engine`, handing each row to
    /// [`Sink::row`], and return the aggregate reply.
    fn rows(
        &mut self,
        engine: SeriesEngine,
        event: Box<dyn SuppEvent>,
        db: &Database,
        k_max: usize,
    ) -> Result<String, String> {
        series_rows(engine, &*event, db, k_max, &mut |k, row| self.row(k, row))
    }
}

/// Drops the rows: the aggregate reply is all the caller wants.
impl Sink for () {}

/// Hands each row to the closure.
impl Sink for &mut dyn FnMut(usize, &str) {
    fn row(&mut self, k: usize, row: &str) {
        (**self)(k, row)
    }
}

/// Compute `μ¹..μ^k_max` on `engine` in ascending `k`, passing each
/// rendered row to `emit` and returning their concatenation. The
/// census refuses an instance past its caps, before any row.
pub(crate) fn series_rows(
    engine: SeriesEngine,
    event: &dyn SuppEvent,
    db: &Database,
    k_max: usize,
    emit: &mut dyn FnMut(usize, &str),
) -> Result<String, String> {
    let census = match engine {
        SeriesEngine::Census => Some(SeriesCensus::new(event, db).map_err(|e| e.to_string())?),
        SeriesEngine::Enumeration => None,
    };
    let mut out = String::new();
    for k in 1..=k_max {
        let value = match &census {
            Some(census) => census.mu_k(k),
            None => mu_k(event, db, k),
        };
        push_series_row(&mut out, emit, k, value);
    }
    Ok(out)
}

/// Render row `k` of a series through the same [`Series`] Display as
/// the aggregate path, so streamed rows concatenate byte-for-byte to
/// [`Session::eval`]'s reply; hand it to `emit` and append it to `out`.
pub(crate) fn push_series_row(
    out: &mut String,
    emit: &mut dyn FnMut(usize, &str),
    k: usize,
    value: Ratio,
) {
    let row_block = Series { ks: vec![k], values: vec![value] }.to_string();
    let row = row_block.trim_end_matches('\n');
    emit(k, row);
    out.push_str(row);
    out.push('\n');
}

/// A planner decision rendered for the wire: the chosen route, the
/// classification features, and every rejected candidate with its
/// reason.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// The route the planner chose.
    pub route: Route,
    /// The classification the decision was made from.
    pub features: Features,
    /// Candidates tried and rejected before `route`, in order.
    pub rejected: Vec<Rejection>,
    /// For `series` jobs: the cost of both exact engines, and so the
    /// engine the planner runs the job on.
    pub series: Option<SeriesCost>,
    /// For `certain` jobs: whether Corollary 3 answers the job by its
    /// naïve answers, or why not (the class walk answers it then).
    pub certain: Option<Result<(), String>>,
}

impl PlanReport {
    /// The one-line `plan` summary: the chosen route, plus the rejected
    /// candidates' names when any were tried.
    pub fn summary(&self) -> String {
        if self.rejected.is_empty() {
            format!("route {}", self.route.name())
        } else {
            let names: Vec<&str> = self.rejected.iter().map(|r| r.route.name()).collect();
            format!("route {} (rejected: {})", self.route.name(), names.join(", "))
        }
    }

    /// The `explain` report as `(tag, payload)` lines: one `route`
    /// line, one `features` line, for `series` jobs one
    /// `engine census|enumeration <classes> <valuations>` line, for
    /// `certain` jobs one `engine corollary3-naive|class-walk` line, and
    /// one `reject` line per rejected candidate, Corollary 3 last. A
    /// server frames each as a tagged reply chunk; the plain REPL joins
    /// them as `tag payload` text lines.
    pub fn lines(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("route", self.route.name().to_string()),
            ("features", self.features.to_string()),
        ];
        if let Some(cost) = &self.series {
            let engine = cost.engine().name();
            out.push(("engine", format!("{engine} {} {}", cost.classes, cost.valuations)));
        }
        let corollary3 = caz_planner::COROLLARY3_NAIVE;
        match &self.certain {
            Some(Ok(())) => out.push(("engine", corollary3.to_string())),
            Some(Err(_)) => out.push(("engine", "class-walk".to_string())),
            None => {}
        }
        for r in &self.rejected {
            out.push(("reject", format!("{}: {}", r.route.name(), r.reason)));
        }
        if let Some(Err(reason)) = &self.certain {
            out.push(("reject", format!("{corollary3}: {reason}")));
        }
        out
    }

    /// Plain-text rendering: the summary for `plan`, the full tagged
    /// report for `explain`.
    pub fn text(&self, explain: bool) -> String {
        if !explain {
            return self.summary();
        }
        let lines: Vec<String> =
            self.lines().into_iter().map(|(tag, payload)| format!("{tag} {payload}")).collect();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, line: &str) -> String {
        match session.execute(line).unwrap() {
            Reply::Text(t) => t,
            Reply::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn full_session_walkthrough() {
        let mut s = Session::new();
        run(&mut s, "fact R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).");
        run(&mut s, "fact R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).");
        run(&mut s, "query Q(x, y) := R1(x, y) & !R2(x, y)");
        assert_eq!(run(&mut s, "certain Q"), "{}");
        let naive = run(&mut s, "naive Q");
        assert!(naive.contains("c1") && naive.contains("c2"));
        assert_eq!(run(&mut s, "mu Q (c1, _p1)"), "μ(Q, D) = 1");
        let best = run(&mut s, "best Q");
        assert!(best.contains("c2"));
        let cmp = run(&mut s, "compare Q (c1, _p1) (c2, _p2)");
        assert!(cmp.contains("strictly better"), "{cmp}");
        run(&mut s, "constraint fd R1: 1 -> 2");
        run(&mut s, "query Any := exists x, y. R1(x, y) & !R2(x, y)");
        assert_eq!(run(&mut s, "cond Any"), "μ(Q | Σ, D) = 0");
        // `mucond` is a wire-protocol alias for `cond`.
        assert_eq!(run(&mut s, "mucond Any"), "μ(Q | Σ, D) = 0");
    }

    #[test]
    fn nulls_are_shared_across_fact_commands() {
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x).");
        run(&mut s, "fact S(_x).");
        assert_eq!(s.instance.db.nulls().len(), 1, "_x must stay the same null");
        run(&mut s, "query Meet := exists u. R('a', u) & S(u)");
        assert_eq!(run(&mut s, "mu Meet"), "μ(Q, D) = 1");
    }

    #[test]
    fn datalog_in_the_shell() {
        let mut s = Session::new();
        run(&mut s, "fact edge(a, _m). edge(_m, c).");
        run(
            &mut s,
            "datalog path(x, y) :- edge(x, y); path(x, z) :- path(x, y), edge(y, z)",
        );
        let certain = run(&mut s, "certain path");
        assert!(certain.contains("(a, c)"), "{certain}");
        assert_eq!(run(&mut s, "mu path (a, c)"), "μ(Q, D) = 1");
        assert_eq!(run(&mut s, "mu path (c, a)"), "μ(Q, D) = 0");
    }

    #[test]
    fn series_and_errors() {
        let mut s = Session::new();
        run(&mut s, "fact R(c1, _x). R(c2, _y).");
        run(&mut s, "query Col := exists p. R(c1, p) & R(c2, p)");
        let series = run(&mut s, "series Col 4");
        assert!(series.contains("k=  4"), "{series}");
        assert!(s.execute("mu Nope").is_err());
        assert!(s.execute("series Col 0").is_err());
        assert!(s.execute("bogus").is_err());
        assert!(s.execute("mu Col (a, b)").is_err(), "arity mismatch");
        assert!(matches!(s.execute("quit").unwrap(), Reply::Quit));
    }

    #[test]
    fn clear_resets() {
        let mut s = Session::new();
        run(&mut s, "fact R(a).");
        run(&mut s, "clear");
        assert_eq!(run(&mut s, "db"), "");
        assert!(run(&mut s, "help").contains("commands"));
    }

    #[test]
    fn stats_refused_outside_server() {
        let mut s = Session::new();
        assert!(s.execute("stats").is_err());
    }

    #[test]
    fn cache_key_invariant_under_null_renaming() {
        let mut a = Session::new();
        run(&mut a, "fact R(c1, _x). R(c2, _x). R(c2, _y).");
        run(&mut a, "query Q(u, v) := R(u, v)");
        let mut b = Session::new();
        run(&mut b, "fact R(c1, _n). R(c2, _n). R(c2, _m).");
        run(&mut b, "query Q(u, v) := R(u, v)");

        let req_a = EvalRequest { kind: EvalKind::Mu, args: "Q (c1, _x)".into() };
        let req_b = EvalRequest { kind: EvalKind::Mu, args: "Q (c1, _n)".into() };
        let (ka, kb) = (a.cache_key(&req_a), b.cache_key(&req_b));
        assert!(ka.is_some());
        assert_eq!(ka, kb, "isomorphic db + tuple must share one entry");

        // Different tuple → different key.
        let req_c = EvalRequest { kind: EvalKind::Mu, args: "Q (c2, _n)".into() };
        assert_ne!(b.cache_key(&req_c), kb);

        // Same answers, matching replies.
        assert_eq!(a.eval(&req_a), b.eval(&req_b));
    }

    #[test]
    fn cache_key_distinguishes_kind_sigma_and_definition() {
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x).");
        run(&mut s, "query Q := exists u, v. R(u, v)");
        let mu = EvalRequest { kind: EvalKind::Mu, args: "Q".into() };
        let cond = EvalRequest { kind: EvalKind::Cond, args: "Q".into() };
        let k_mu = s.cache_key(&mu).unwrap();
        let k_cond = s.cache_key(&cond).unwrap();
        assert_ne!(k_mu, k_cond);

        // Adding a constraint changes the cond key, not the mu key.
        run(&mut s, "constraint fd R: 1 -> 2");
        assert_eq!(s.cache_key(&mu).unwrap(), k_mu);
        assert_ne!(s.cache_key(&cond).unwrap(), k_cond);

        // Redefining the query under the same name changes the key.
        run(&mut s, "query Q := exists u. R(u, u)");
        assert_ne!(s.cache_key(&mu).unwrap(), k_mu);

        // Series includes k; uncacheable kinds return None.
        let s4 = EvalRequest { kind: EvalKind::Series, args: "Q 4".into() };
        let s5 = EvalRequest { kind: EvalKind::Series, args: "Q 5".into() };
        assert_ne!(s.cache_key(&s4), s.cache_key(&s5));
        let naive = EvalRequest { kind: EvalKind::Naive, args: "Q".into() };
        assert_eq!(s.cache_key(&naive), None);
    }

    #[test]
    fn reserved_relation_name_rejected() {
        let mut s = Session::new();
        assert!(s.execute("fact __caz_answer(a).").is_err());
    }

    #[test]
    fn parse_classifies_commands() {
        assert!(matches!(Request::parse("  # comment"), Ok(None)));
        assert!(matches!(Request::parse(""), Ok(None)));
        assert!(matches!(Request::parse("mu Q"), Ok(Some(Request::Eval(_)))));
        assert!(matches!(Request::parse("mucond Q"),
            Ok(Some(Request::Eval(EvalRequest { kind: EvalKind::Cond, .. })))));
        assert!(matches!(Request::parse("fact R(a)."), Ok(Some(Request::AddFacts(_)))));
        assert!(Request::parse("frobnicate").is_err());
    }

    #[test]
    fn parse_eval_star_and_jobs() {
        let line = format!("eval* {}", crate::proto::join_jobs(["mu Q", "certain Q"]));
        let Ok(Some(Request::EvalMulti(jobs))) = Request::parse(&line) else {
            panic!("eval* must parse to EvalMulti")
        };
        assert_eq!(jobs, vec!["mu Q".to_string(), "certain Q".to_string()]);
        assert!(Request::parse("eval*").is_err(), "empty job list");

        assert_eq!(parse_eval_job("mu Q (a)").unwrap().kind, EvalKind::Mu);
        assert_eq!(parse_eval_job("naive Q").unwrap().kind, EvalKind::Naive);
        let e = parse_eval_job("series Q 4").unwrap_err();
        assert!(e.contains("series"), "{e}");
        let e = parse_eval_job("fact R(a).").unwrap_err();
        assert!(e.contains("read-only"), "{e}");
        assert!(parse_eval_job("").is_err());
    }

    #[test]
    fn eval_multi_runs_sequentially_in_a_plain_session() {
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x).");
        run(&mut s, "query Q := exists u, v. R(u, v)");
        let line = format!("eval* {}", crate::proto::join_jobs(["mu Q", "mu Nope", "mu Q"]));
        let out = run(&mut s, &line);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "[0] μ(Q, D) = 1");
        assert!(lines[1].starts_with("[1] error:"), "{out}");
        assert_eq!(lines[2], "[2] μ(Q, D) = 1");
    }

    #[test]
    fn series_chunks_concatenate_to_the_aggregate_reply() {
        let mut s = Session::new();
        run(&mut s, "fact R(c1, _x). R(c2, _y).");
        run(&mut s, "query Col := exists p. R(c1, p) & R(c2, p)");
        let mut chunks = Vec::new();
        let aggregate = s
            .eval_series_chunks("Col 4", &mut |k, row| chunks.push((k, row.to_string())))
            .unwrap();
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // Chunks must rebuild the exact non-streamed reply — the server
        // caches the aggregate and replays it chunk-by-chunk on a hit.
        let direct = s
            .eval(&EvalRequest { kind: EvalKind::Series, args: "Col 4".into() })
            .unwrap();
        let rebuilt: String = chunks.iter().map(|(_, row)| format!("{row}\n")).collect();
        assert_eq!(rebuilt, direct);
        assert_eq!(aggregate, direct, "returned aggregate matches the eval path");
        // Errors surface before any chunk is emitted.
        let mut n = 0;
        assert!(s.eval_series_chunks("Nope 4", &mut |_, _| n += 1).is_err());
        assert!(s.eval_series_chunks("Col 0", &mut |_, _| n += 1).is_err());
        assert_eq!(n, 0);
    }

    /// Records the engine each `series` job ran on.
    struct Engines(Vec<SeriesEngine>);

    impl Sink for Engines {
        fn rows(
            &mut self,
            engine: SeriesEngine,
            event: Box<dyn SuppEvent>,
            db: &Database,
            k_max: usize,
        ) -> Result<String, String> {
            self.0.push(engine);
            series_rows(engine, &*event, db, k_max, &mut |_, _| {})
        }
    }

    #[test]
    fn planned_series_takes_the_census_and_matches_enumeration() {
        let mut s = Session::new();
        // Five nulls and five named constants: rows k = 1..4 lie below c.
        run(&mut s, "fact R(c0, _x0). R(c1, _x1). R(c2, _x2). R(c3, _x3). R(c4, _x4).");
        run(&mut s, "query Q := exists v. R(c1, v) & R(c3, v)");
        let explain = run(&mut s, "explain series Q 8");
        assert!(explain.contains("\nengine census 10427 "), "{explain}");
        // The shell plans like a server.
        let shell = run(&mut s, "series Q 8");
        let engine = |args: &str, planned: bool| {
            let mut seen = Engines(Vec::new());
            let req = EvalRequest { kind: EvalKind::Series, args: args.into() };
            let reply = s.resolve(&req).unwrap().execute(planned, &mut |_| {}, &mut seen);
            (seen.0, reply.unwrap())
        };
        assert_eq!(engine("Q 8", true), (vec![SeriesEngine::Census], shell.clone()));
        assert_eq!(shell, s.eval_series_chunks("Q 8", &mut |_, _| {}).unwrap());
        // The forced route enumerates, and so does a short series, which
        // is cheaper to enumerate.
        assert_eq!(engine("Q 8", false).0, [SeriesEngine::Enumeration]);
        assert_eq!(engine("Q 2", true).0, [SeriesEngine::Enumeration]);
    }

    #[test]
    fn census_is_never_chosen_past_its_caps() {
        let cost = |s: &Session| s.plan_for("series Q 24").unwrap().series.unwrap();
        let mut s = Session::new();
        let facts: Vec<String> = (0..11).map(|i| format!("N(_n{i}).")).collect();
        run(&mut s, &format!("fact {}", facts.join(" ")));
        run(&mut s, "query Q := exists u. N(u)");
        // 11 nulls, no named constants: Bell(11) classes would beat
        // Σ k¹¹ valuations for k ≤ 24, but the census cannot take 11.
        let c = cost(&s);
        assert!(c.classes < c.valuations && !c.census_eligible());
        assert_eq!(c.engine(), SeriesEngine::Enumeration);

        let mut s = Session::new();
        let consts: Vec<String> = (0..65).map(|i| format!("K(k{i}).")).collect();
        run(&mut s, &format!("fact N(_n). {}", consts.join(" ")));
        run(&mut s, "query Q := exists u. N(u)");
        assert_eq!(cost(&s).engine(), SeriesEngine::Enumeration);
    }

    #[test]
    fn the_shell_plans_like_a_server() {
        // Eleven nulls: past the support-polynomial engine's cap, so only
        // the planner's Theorem 1 route answers without panicking.
        let mut s = Session::new();
        let facts: Vec<String> = (0..=10).map(|i| format!("N(_a{i}).")).collect();
        run(&mut s, &format!("fact {}", facts.join(" ")));
        run(&mut s, "query P := exists x. N(x)");
        assert_eq!(run(&mut s, "mu P"), "μ(Q, D) = 1");
        let line = format!("eval* {}", crate::proto::join_jobs(["mu P", "cond P"]));
        assert_eq!(run(&mut s, &line), "[0] μ(Q, D) = 1\n[1] μ(Q | Σ, D) = 1");
    }

    #[test]
    fn definitions_are_kept_rendered_and_parse_back() {
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x).");
        run(&mut s, "query T(u, w) := exists v. R(u, v) & w != 7");
        run(&mut s, "query B := forall v. S(v) -> R('two words', v)");
        let texts: Vec<&str> = s.queries.iter().map(Definition::text).collect();
        assert_eq!(
            texts,
            ["B() := ∀v ((¬(S(v)) ∨ R('two words', v)))", "T(u, w) := ∃v ((R(u, v) ∧ ¬(w = '7')))"]
        );
        let t = s.query("T").unwrap();
        assert_eq!((t.name(), t.arity(), s.query("B").unwrap().arity()), ("T", 2, 0));
        assert_eq!(t.parse().unwrap().to_string(), t.text());
        // Redefining a name replaces its definition.
        run(&mut s, "query T(u) := R(u, u)");
        assert_eq!(s.queries.len(), 2);
        assert_eq!(s.query("T").unwrap().text(), "T(u) := R(u, u)");
        assert!(s.execute("mu T").is_err_and(|e| e.contains("needs a tuple")));
    }

    #[test]
    fn replay_lines_render_the_state_not_its_history() {
        let mut s = Session::new();
        // `_y` is minted first, in the relation that renders last.
        run(&mut s, "fact S(_y). R(a, _x).");
        run(&mut s, "fact R(_x, _y). R(a, _x). S(7).");
        run(&mut s, "constraint fd R: 1 2 -> 2");
        run(&mut s, "constraint fk R[2] -> S[1]");
        run(&mut s, "datalog P(x) :- S(x); P(x) :- R(x, y), P(y)");
        run(&mut s, "query N(u) := S(u) | exists v. R(v, u)");
        run(&mut s, "query N(u) := exists v. R(v, u) | S(u)");
        assert!(s.execute("query Bad := R(").is_err());
        let lines = s.replay_lines();
        assert_eq!(
            lines,
            [
                "fact S(7). S(_y). R(a, _x). R(_x, _y).",
                "constraint fd R: 1 2 -> 2",
                "constraint fk R[2] -> S[1]",
                "datalog P(x) :- S(x).; P(x) :- R(x, y), P(y).; output P",
                "query N(u) := ∃v ((R(v, u) ∨ S(u)))",
            ]
        );
        let mut fresh = Session::new();
        for line in &lines {
            run(&mut fresh, line);
        }
        for line in ["db", "sigma", "naive N", "certain P", "naive P"] {
            assert_eq!(run(&mut fresh, line), run(&mut s, line), "{line}");
        }
        assert_eq!(run(&mut s, "naive N"), "{(7), (⊥y), (⊥x)}");
        assert_eq!(fresh.replay_lines(), lines);
        run(&mut s, "clear");
        assert!(s.replay_lines().is_empty());
    }

    #[test]
    fn fact_lines_split_at_the_line_bound() {
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x). R(_x, _y). R(_y, _z). S(a). S(_z). S(_).");
        let lines = fact_lines(&s.instance, 24);
        // The anonymous null is minted last, so `S(_)` precedes `S(_z)`.
        assert_eq!(
            lines,
            ["fact S(a). R(a, _x).", "fact R(_x, _y).", "fact R(_y, _z). S(_).", "fact S(_z)."]
        );
        assert!(lines.iter().all(|l| l.len() <= 24), "{lines:?}");
        // A fact longer than the bound gets a line of its own.
        assert_eq!(fact_lines(&s.instance, 8).len(), 6);
        let mut fresh = Session::new();
        for line in &lines {
            run(&mut fresh, line);
        }
        assert_eq!(fresh.instance.db.len(), s.instance.db.len());
        let one = fact_lines(&fresh.instance, usize::MAX);
        assert_eq!(one, fact_lines(&s.instance, usize::MAX));
    }

    #[test]
    fn explain_names_the_engine_of_a_certain_job() {
        let mut s = Session::new();
        run(&mut s, "fact R(a1, _x1). R(a2, _x2).");
        run(&mut s, "query Q(u) := exists v. R(u, v)");
        run(&mut s, "query N(u) := exists v. R(u, v) & !R(v, u)");
        assert_eq!(
            run(&mut s, "explain certain Q"),
            "route enumeration-fallback\nfeatures fragment=cq constants=no sigma=empty db=codd \
             nulls=2 facts=2 tuple=none\nengine corollary3-naive"
        );
        let explain = run(&mut s, "explain certain N");
        assert!(explain.contains("\nengine class-walk\nreject corollary3-naive: query is not in \
                                  Pos∀G"), "{explain}");
        assert_eq!(run(&mut s, "plan certain Q"), "route enumeration-fallback");
        assert_eq!(run(&mut s, "certain Q"), "{(a1), (a2)}");
        assert!(!run(&mut s, "explain mu Q (a1)").contains("engine"));
    }

    #[test]
    fn cache_key_text_is_pinned() {
        // Persistent stores and replicas keep key text verbatim: these
        // bytes must not change, or existing stores are orphaned.
        let mut s = Session::new();
        run(&mut s, "fact R(a, _x). R(_x, _y).");
        run(&mut s, "query Q := exists u, v. R(u, v)");
        run(&mut s, "query T(u) := exists v. R(u, v)");
        run(&mut s, "constraint fd R: 1 -> 2");
        let key = |kind, args: &str| {
            s.cache_key(&EvalRequest { kind, args: args.into() }).expect("cacheable").text
        };
        // The canonical form of D, then of the embedded answer tuple.
        let canon = "R/2:R(?0,?1);R(a,?0);|";
        assert_eq!(
            key(EvalKind::Mu, "T (_x)"),
            format!("mu\u{1}fo:T(u) := ∃v (R(u, v))\u{1}\u{1}{canon}__caz_answer/1:__caz_answer(?0);|")
        );
        assert_eq!(
            key(EvalKind::Cond, "Q"),
            format!(
                "cond\u{1}fo:Q() := ∃u,v (R(u, v))\u{1}fd R: 1 -> 2\n\u{1}{canon}__caz_answer/0:__caz_answer();|"
            )
        );
        assert_eq!(
            key(EvalKind::Series, "Q 3"),
            format!("series:3\u{1}fo:Q() := ∃u,v (R(u, v))\u{1}\u{1}{canon}__caz_answer/0:__caz_answer();|")
        );
        // A request that does not resolve has no key at all.
        let unresolvable = [(EvalKind::Mu, "T (a, b)"), (EvalKind::Series, "Q 0"), (EvalKind::Series, "Q 99")];
        for (kind, args) in unresolvable {
            let req = EvalRequest { kind, args: args.into() };
            assert!(s.resolve(&req).is_err() && s.cache_key(&req).is_none(), "{args}");
        }
    }
}
