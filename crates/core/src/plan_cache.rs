//! Plan cache: optimized-plan templates keyed on the normalized
//! statement, shared by every connection of a [`crate::Database`].
//!
//! The paper's embedded-use argument (§1, §4.2) is that the same process
//! re-issues many small parameterized queries, so per-query overheads —
//! parse, bind, optimize — dominate at scale; PR 5's cost-based DPsize
//! join orderer made optimization meaningfully expensive, which is what
//! this cache skips on a hit. A template stores the optimized plan with
//! [`BExpr::Param`] slots where WHERE-clause literals were; replay
//! substitutes the statement's fresh literals (re-applying the same cast
//! folds the representative went through) and re-folds constants so
//! every literal-driven fast path (zonemap probes, dictionary predicate
//! compilation, imprints) fires exactly as it would uncached.
//!
//! In front of the templates, two memos map statement text to its
//! normalization without parsing it again: the exact text, and the token
//! skeleton ([`Skeleton`]) — the text with its literals reduced to their
//! types — which serves a fresh text of a known shape after the lexer.
//!
//! Soundness rules shared with the result cache:
//! * Entries are consulted/stored only by transactions with **no
//!   uncommitted writes**: a txn-local append bumps `version` in its
//!   private view, so uncommitted `(id, version)` pairs can collide with
//!   committed pairs of different content.
//! * Every dependency must carry a **committed** table id
//!   (`id < TEMP_TABLE_ID_BASE`); temp ids are reused across
//!   transactions.
//! * At hit time each stored `(name, id, version)` is revalidated
//!   against the transaction's snapshot — DROP/CREATE changes the id,
//!   appends/deletes/compaction bump the version, so any content change
//!   (and any stats-sidecar change, which rides on the same writes)
//!   invalidates lazily. Option/stats/view changes never need
//!   invalidation at all: the optimizer flags, stats mode, `ExecOptions`
//!   and the view epoch are part of the key.

use crate::exec::ExecOptions;
use crate::expr::BExpr;
use crate::opt::{OptFlags, StatsMode};
use crate::plan::Plan;
use monetlite_sql::ast::SelectStmt;
use monetlite_sql::canon;
use monetlite_sql::lexer::{Token, TokenKind};
use monetlite_sql::literal_value;
use monetlite_storage::catalog::TableMeta;
use monetlite_storage::store::TEMP_TABLE_ID_BASE;
use monetlite_types::{LogicalType, Value};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Dependency fingerprints
// ---------------------------------------------------------------------------

/// One input table's content fingerprint at store time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// Lower-cased catalog name.
    pub table: String,
    /// Committed table id (DROP + CREATE of the same name changes it).
    pub id: u64,
    /// Version counter (bumped by appends, deletes, compaction).
    pub version: u64,
}

/// Fingerprint the plan's base-table inputs against the transaction's
/// snapshot. `None` when a scanned table is missing or carries a
/// temporary (uncommitted) id — such a statement must not be cached.
pub fn collect_deps(plan: &Plan, tables: &HashMap<String, Arc<TableMeta>>) -> Option<Arc<[Dep]>> {
    let mut names = Vec::new();
    collect_scans(plan, &mut names);
    names.sort();
    names.dedup();
    let mut deps = Vec::with_capacity(names.len());
    for n in names {
        let meta = tables.get(&n)?;
        if meta.id >= TEMP_TABLE_ID_BASE {
            return None;
        }
        deps.push(Dep { table: n, id: meta.id, version: meta.version });
    }
    Some(deps.into())
}

/// Output column names and types of `plan`.
pub fn header(plan: &Plan) -> (Arc<[String]>, Arc<[LogicalType]>) {
    let schema = plan.schema();
    (schema.iter().map(|c| c.name.to_string()).collect(), schema.iter().map(|c| c.ty).collect())
}

/// True when every stored dependency still matches the snapshot exactly.
pub fn deps_valid(deps: &[Dep], tables: &HashMap<String, Arc<TableMeta>>) -> bool {
    deps.iter()
        .all(|d| tables.get(&d.table).is_some_and(|m| m.id == d.id && m.version == d.version))
}

fn collect_scans(p: &Plan, out: &mut Vec<String>) {
    match p {
        Plan::Scan { table, .. } => out.push(table.clone()),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::TopN { input, .. } => collect_scans(input, out),
        Plan::Join { left, right, .. } => {
            collect_scans(left, out);
            collect_scans(right, out);
        }
        Plan::Values { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Parameter substitution over whole plans
// ---------------------------------------------------------------------------

/// Rewrite every expression in the plan through `f` (used to replace
/// [`BExpr::Param`] slots with fresh literals before execution).
pub fn map_plan_exprs(p: &Plan, f: &dyn Fn(&BExpr) -> BExpr) -> Plan {
    match p {
        Plan::Scan { table, projected, filters, schema } => Plan::Scan {
            table: table.clone(),
            projected: projected.clone(),
            filters: filters.iter().map(f).collect(),
            schema: schema.clone(),
        },
        Plan::Filter { input, pred } => {
            Plan::Filter { input: Box::new(map_plan_exprs(input, f)), pred: f(pred) }
        }
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: Box::new(map_plan_exprs(input, f)),
            exprs: exprs.iter().map(f).collect(),
            schema: schema.clone(),
        },
        Plan::Join { left, right, kind, left_keys, right_keys, residual, schema } => Plan::Join {
            left: Box::new(map_plan_exprs(left, f)),
            right: Box::new(map_plan_exprs(right, f)),
            kind: *kind,
            left_keys: left_keys.iter().map(f).collect(),
            right_keys: right_keys.iter().map(f).collect(),
            residual: residual.as_ref().map(f),
            schema: schema.clone(),
        },
        Plan::Aggregate { input, groups, aggs, schema } => Plan::Aggregate {
            input: Box::new(map_plan_exprs(input, f)),
            groups: groups.iter().map(f).collect(),
            aggs: aggs
                .iter()
                .map(|a| crate::expr::AggSpec {
                    func: a.func,
                    arg: a.arg.as_ref().map(f),
                    distinct: a.distinct,
                    ty: a.ty,
                })
                .collect(),
            schema: schema.clone(),
        },
        Plan::Sort { input, keys } => {
            Plan::Sort { input: Box::new(map_plan_exprs(input, f)), keys: keys.clone() }
        }
        Plan::Limit { input, n } => {
            Plan::Limit { input: Box::new(map_plan_exprs(input, f)), n: *n }
        }
        Plan::TopN { input, keys, n } => {
            Plan::TopN { input: Box::new(map_plan_exprs(input, f)), keys: keys.clone(), n: *n }
        }
        Plan::Values { rows, schema } => Plan::Values {
            rows: rows.iter().map(|r| r.iter().map(f).collect()).collect(),
            schema: schema.clone(),
        },
    }
}

/// Substitute fresh literals for the template's parameter slots,
/// coercing each to the representative's type (the casts the template's
/// binding folded away). `None` when a fresh value cannot take the
/// template's type — the caller falls back to a full replan.
pub fn substitute_params(template: &Plan, fresh: &[Value]) -> Option<Plan> {
    let mut coerced: Vec<Option<Value>> = vec![None; fresh.len()];
    let mut ok = true;
    visit_plan_exprs(template, &mut |e| {
        walk_params(e, &mut |idx, repr| {
            if !ok {
                return;
            }
            match fresh.get(idx).and_then(|v| crate::bind::coerce_param_value(v, repr)) {
                Some(c) => coerced[idx] = Some(c),
                None => ok = false,
            }
        })
    });
    if !ok {
        return None;
    }
    Some(map_plan_exprs(template, &|e| {
        e.resolve_params(&|idx, repr| {
            coerced.get(idx).and_then(|c| c.clone()).unwrap_or_else(|| repr.clone())
        })
    }))
}

/// Visit every expression position in the plan once (read-only).
fn visit_plan_exprs(p: &Plan, f: &mut dyn FnMut(&BExpr)) {
    match p {
        Plan::Scan { filters, .. } => {
            for e in filters {
                f(e);
            }
        }
        Plan::Filter { input, pred } => {
            visit_plan_exprs(input, f);
            f(pred);
        }
        Plan::Project { input, exprs, .. } => {
            visit_plan_exprs(input, f);
            for e in exprs {
                f(e);
            }
        }
        Plan::Join { left, right, left_keys, right_keys, residual, .. } => {
            visit_plan_exprs(left, f);
            visit_plan_exprs(right, f);
            for e in left_keys.iter().chain(right_keys.iter()) {
                f(e);
            }
            if let Some(r) = residual {
                f(r);
            }
        }
        Plan::Aggregate { input, groups, aggs, .. } => {
            visit_plan_exprs(input, f);
            for e in groups {
                f(e);
            }
            for a in aggs {
                if let Some(arg) = &a.arg {
                    f(arg);
                }
            }
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } | Plan::TopN { input, .. } => {
            visit_plan_exprs(input, f)
        }
        Plan::Values { rows, .. } => {
            for e in rows.iter().flatten() {
                f(e);
            }
        }
    }
}

fn walk_params(e: &BExpr, f: &mut dyn FnMut(usize, &Value)) {
    match e {
        BExpr::Param { idx, value } => f(*idx, value),
        BExpr::ColRef { .. } | BExpr::Lit(_) => {}
        BExpr::Cast { input, .. } | BExpr::Not(input) | BExpr::Neg { input, .. } => {
            walk_params(input, f)
        }
        BExpr::IsNull { input, .. } | BExpr::Like { input, .. } => walk_params(input, f),
        BExpr::Arith { left, right, .. } | BExpr::Cmp { left, right, .. } => {
            walk_params(left, f);
            walk_params(right, f);
        }
        BExpr::And(a, b) | BExpr::Or(a, b) => {
            walk_params(a, f);
            walk_params(b, f);
        }
        BExpr::Case { branches, else_expr, .. } => {
            for (c, v) in branches {
                walk_params(c, f);
                walk_params(v, f);
            }
            if let Some(e) = else_expr {
                walk_params(e, f);
            }
        }
        BExpr::Func { args, .. } => {
            for a in args {
                walk_params(a, f);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// Everything a cached plan or result depends on besides the statement,
/// the view catalog and the data: optimizer flags, statistics mode and
/// the full `ExecOptions`. Rendered (and hashed) once when a connection's
/// options change and shared by `Arc` from then on, so a statement never
/// formats an option struct and a cache entry never holds its own copy.
pub struct Fingerprint {
    text: String,
    hash: u64,
}

impl Fingerprint {
    /// Render the option triple.
    pub fn new(flags: OptFlags, mode: StatsMode, opts: &ExecOptions) -> Arc<Fingerprint> {
        let text = format!("{flags:?}|{mode:?}|{opts:?}");
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        Arc::new(Fingerprint { hash: h.finish(), text })
    }
}

/// Key of both caches. Changing any component moves the key space, so
/// entries stored under other options or another view catalog are simply
/// never looked up again (the LRU ages them out).
#[derive(Clone)]
pub struct CacheKey {
    /// The connection's option fingerprint.
    pub fingerprint: Arc<Fingerprint>,
    /// The view catalog's epoch in the transaction's snapshot.
    pub views_epoch: u64,
    /// Canonical statement: [`Shape::plan_key`] for the plan cache,
    /// [`StmtMemo::result_key`] for the result cache.
    pub statement: Arc<str>,
}

impl PartialEq for CacheKey {
    fn eq(&self, o: &CacheKey) -> bool {
        // Fingerprints are compared by content (the hash only routes):
        // two connections with equal options hold different `Arc`s.
        self.views_epoch == o.views_epoch
            && self.statement == o.statement
            && (Arc::ptr_eq(&self.fingerprint, &o.fingerprint)
                || self.fingerprint.text == o.fingerprint.text)
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint.hash);
        state.write_u64(self.views_epoch);
        self.statement.hash(state);
    }
}

impl CacheKey {
    /// Key of `statement` under a connection's options and view catalog.
    pub fn new(fingerprint: &Arc<Fingerprint>, views_epoch: u64, statement: &Arc<str>) -> CacheKey {
        CacheKey { fingerprint: fingerprint.clone(), views_epoch, statement: statement.clone() }
    }

    /// Bytes an entry under this key accounts for the key itself. The
    /// fingerprint is shared, but among an unknown number of entries (a
    /// connection whose options keep changing leaves one per change), so
    /// each entry is charged for it in full: an upper bound on the real
    /// footprint, and what an entry was charged when every key carried
    /// its own copy — eviction and hit ratios are what they were.
    pub(crate) fn weight(&self) -> usize {
        self.statement.len() + self.fingerprint.text.len()
    }
}

// ---------------------------------------------------------------------------
// LRU with a byte budget
// ---------------------------------------------------------------------------

/// "No neighbour" in the recency list.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    v: Arc<V>,
    bytes: usize,
    /// Neighbour towards the most recently used end.
    prev: usize,
    /// Neighbour towards the least recently used end.
    next: usize,
}

/// A mutex-guarded exact-LRU map with a byte budget: the plan templates,
/// the result sets, the statement memo and its shapes are each one of
/// these. Entries live in a slab and are threaded on a doubly linked
/// recency list by slab index, so lookup, insert, removal and each
/// eviction are O(1) whatever the population. Keys are cloned into the
/// index and the slab; both key types in use are `Arc`-backed, so the
/// key bytes exist once.
pub(crate) struct Lru<V, K = Arc<str>> {
    inner: Mutex<LruInner<V, K>>,
}

struct LruInner<V, K> {
    index: HashMap<K, usize>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used: the next victim.
    tail: usize,
    bytes: usize,
}

impl<V, K> Default for LruInner<V, K> {
    fn default() -> Self {
        LruInner {
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }
}

impl<V, K> Default for Lru<V, K> {
    fn default() -> Self {
        Lru { inner: Mutex::default() }
    }
}

impl<V, K> LruInner<V, K> {
    fn node(&mut self, i: usize) -> &mut Node<K, V> {
        // xlint: allow(panic, every index in `index` and on the recency list names an occupied slot: `release` unlinks a slot before it empties it)
        self.nodes[i].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let n = self.node(i);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node(n).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let head = self.head;
        let n = self.node(i);
        n.prev = NIL;
        n.next = head;
        match head {
            NIL => self.tail = i,
            h => self.node(h).prev = i,
        }
        self.head = i;
    }

    /// Unlink slot `i` and free it; the caller drops the index entry.
    fn release(&mut self, i: usize) -> Node<K, V> {
        self.unlink(i);
        // xlint: allow(panic, `i` was linked a moment ago, and only an occupied slot is ever linked)
        let n = self.nodes[i].take().expect("linked slot is occupied");
        self.free.push(i);
        self.bytes -= n.bytes;
        n
    }
}

impl<V, K: Hash + Eq + Clone> Lru<V, K> {
    fn lock(&self) -> std::sync::MutexGuard<'_, LruInner<V, K>> {
        // xlint: allow(panic, poisoned only when a holder panicked mid-update and left the list half linked; serving from it would be worse than failing)
        self.inner.lock().expect("cache lock")
    }

    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut g = self.lock();
        let i = *g.index.get(key)?;
        if g.head != i {
            g.unlink(i);
            g.push_front(i);
        }
        Some(g.node(i).v.clone())
    }

    /// The entry under `key`, its recency untouched: a look that is not a
    /// use (a counter read re-deriving what a statement ran).
    pub fn peek<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let g = self.lock();
        let i = *g.index.get(key)?;
        g.nodes.get(i)?.as_ref().map(|n| n.v.clone())
    }

    /// Fetch an entry `valid` accepts. A rejected entry is dropped — but
    /// only if it is still the one stored: between the fetch and the
    /// removal another connection may have stored a fresh, valid entry
    /// under the same key, and that one must survive.
    pub fn get_valid<Q>(&self, key: &Q, valid: impl FnOnce(&V) -> bool) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let entry = self.get(key)?;
        if valid(&entry) {
            return Some(entry);
        }
        self.remove_if(key, |v| Arc::ptr_eq(v, &entry));
        None
    }

    /// Store `v` under `key`, accounting `bytes` against `budget`, then
    /// evict from the least recently used end until the budget holds.
    /// Returns the number of entries evicted.
    pub fn put(&self, key: K, v: Arc<V>, bytes: usize, budget: usize) -> u64 {
        // One entry larger than the whole budget is not cacheable.
        if bytes > budget {
            return 0;
        }
        let mut g = self.lock();
        match g.index.get(&key).copied() {
            Some(i) => {
                let n = g.node(i);
                let old = std::mem::replace(&mut n.bytes, bytes);
                n.v = v;
                g.bytes -= old;
                g.unlink(i);
                g.push_front(i);
            }
            None => {
                let node = Node { key: key.clone(), v, bytes, prev: NIL, next: NIL };
                let i = match g.free.pop() {
                    Some(i) => {
                        g.nodes[i] = Some(node);
                        i
                    }
                    None => {
                        g.nodes.push(Some(node));
                        g.nodes.len() - 1
                    }
                };
                g.index.insert(key, i);
                g.push_front(i);
            }
        }
        g.bytes += bytes;
        let mut evicted = 0;
        while g.bytes > budget && g.tail != NIL {
            let tail = g.tail;
            let victim = g.release(tail);
            g.index.remove(&victim.key);
            evicted += 1;
        }
        evicted
    }

    /// Remove the entry under `key` if `pred` accepts it.
    pub fn remove_if<Q>(&self, key: &Q, pred: impl FnOnce(&Arc<V>) -> bool) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut g = self.lock();
        let Some(&i) = g.index.get(key) else { return false };
        if !pred(&g.node(i).v) {
            return false;
        }
        g.index.remove(key);
        g.release(i);
        true
    }

    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    pub fn clear(&self) {
        *self.lock() = LruInner::default();
    }
}

// ---------------------------------------------------------------------------
// Statement memo and the plan cache proper
// ---------------------------------------------------------------------------

/// What every statement of one *shape* (same text up to WHERE-clause
/// literals) shares.
pub struct Shape {
    /// Canonical rendering of the parameterized statement (the plan
    /// -cache key material).
    pub plan_key: Arc<str>,
    /// The parameterized AST (template binding input).
    pub template_stmt: SelectStmt,
}

/// Pure, per-text normalization memo entry: everything derivable from
/// the SQL text alone (no catalog state), so it can never go stale. A
/// repeat of the *exact* text skips the parser as well as the binder.
pub struct StmtMemo {
    /// Canonical rendering of the statement including its literals (the
    /// result-cache key material).
    pub result_key: Arc<str>,
    /// The statement's shape, shared with every other text of it.
    pub shape: Arc<Shape>,
    /// Extracted WHERE-clause literals, aligned with the `?N` slots.
    pub params: Vec<Value>,
}

impl StmtMemo {
    /// The statement as parsed, literals in place (the binding input
    /// when the plan cache is off and no template is wanted).
    pub fn original_stmt(&self) -> SelectStmt {
        canon::restore_literals(&self.shape.template_stmt, &self.params)
    }
}

/// A lexed query as the skeleton memo sees it: its *skeleton*, the token
/// stream with every literal token replaced by the type tag the plan key
/// gives it (`int`, `bigint`, `dec<scale>`, `str`, `date`), and the value
/// of each literal token in token order, converted as the parser
/// converts it ([`monetlite_sql::literal_value`]).
///
/// Two texts share a skeleton exactly when they differ only in literal
/// values of the same tags, in whitespace, comments and identifier case.
/// The parser reads a literal's value only through its tag, so two such
/// texts parse to the same tree up to those values.
pub struct Skeleton {
    key: String,
    values: Vec<Value>,
}

impl Skeleton {
    /// The skeleton of `tokens` (as `tokenize` returned them). `None` for
    /// a statement that is not a query, or with a literal the parser would
    /// reject: either takes the parse path.
    pub fn of(tokens: &[Token]) -> Option<Skeleton> {
        match tokens.first().map(|t| &t.kind) {
            Some(TokenKind::Ident(w))
                if w.eq_ignore_ascii_case("select") || w.eq_ignore_ascii_case("with") => {}
            _ => return None,
        }
        let mut key = String::with_capacity(tokens.len() * 8);
        let mut values = Vec::new();
        let mut after_date = false;
        for t in tokens {
            match literal_value(&t.kind, after_date) {
                Some(v) => {
                    let v = v.ok()?;
                    key.push('?');
                    canon::write_param_tag(&mut key, &v);
                    values.push(v);
                }
                None => match &t.kind {
                    TokenKind::Ident(w) => key.extend(w.chars().map(|c| c.to_ascii_lowercase())),
                    TokenKind::QuotedIdent(w) => {
                        key.push('"');
                        key.push_str(w);
                        key.push('"');
                    }
                    kind => key.push_str(symbol(kind)),
                },
            }
            // Only a quoted identifier renders a space or a `"`, and it
            // is quoted and cannot contain `"`: the separator keeps the
            // rendering injective.
            key.push(' ');
            after_date = matches!(t.kind, TokenKind::Ident(w) if w.eq_ignore_ascii_case("date"));
        }
        Some(Skeleton { key, values })
    }
}

/// The text of a punctuation token (empty for the rest, which
/// [`Skeleton::of`] renders itself).
fn symbol(kind: &TokenKind<'_>) -> &'static str {
    match kind {
        TokenKind::Comma => ",",
        TokenKind::LParen => "(",
        TokenKind::RParen => ")",
        TokenKind::Semicolon => ";",
        TokenKind::Dot => ".",
        TokenKind::Star => "*",
        TokenKind::Plus => "+",
        TokenKind::Minus => "-",
        TokenKind::Slash => "/",
        TokenKind::Percent => "%",
        TokenKind::Eq => "=",
        TokenKind::NotEq => "<>",
        TokenKind::Lt => "<",
        TokenKind::LtEq => "<=",
        TokenKind::Gt => ">",
        TokenKind::GtEq => ">=",
        TokenKind::Eof
        | TokenKind::Ident(_)
        | TokenKind::QuotedIdent(_)
        | TokenKind::Str(_)
        | TokenKind::Int(_)
        | TokenKind::Number(_) => "",
    }
}

/// The role of one literal token of a recorded skeleton.
enum Slot {
    /// The token is the shape's parameter `?N`.
    Param(usize),
    /// The token stays in the keys (a projection literal, an IN-list
    /// member, a LIKE pattern, a LIMIT): a text is served only when its
    /// token has this value.
    Verbatim(Value),
}

/// A recorded skeleton: the shape its texts normalize to and the role of
/// each literal token, in token order.
struct SkeletonEntry {
    shape: Arc<Shape>,
    slots: Vec<Slot>,
    params: usize,
}

impl SkeletonEntry {
    /// The parse path's memo for a statement of this skeleton with
    /// literal values `values`; `None` when a verbatim token differs.
    fn serve(&self, values: &[Value]) -> Option<StmtMemo> {
        if values.len() != self.slots.len() {
            return None;
        }
        let mut params = vec![Value::Null; self.params];
        for (v, slot) in values.iter().zip(&self.slots) {
            match slot {
                Slot::Param(n) => *params.get_mut(*n)? = v.clone(),
                Slot::Verbatim(want) if v == want => {}
                Slot::Verbatim(_) => return None,
            }
        }
        let result_key = canon::result_key(&self.shape.plan_key, &params).into();
        Some(StmtMemo { result_key, shape: self.shape.clone(), params })
    }

    /// The entry that serves the statement `memo` was normalized from, if
    /// one serves it byte for byte. Parameter `?N` is the one literal token
    /// whose value equals it; when several tokens do (`select 5 ... where
    /// x = 5`), which one became the parameter is not known, and the
    /// statement is not recorded.
    fn record(sk: &Skeleton, memo: &StmtMemo) -> Option<SkeletonEntry> {
        let mut slots: Vec<Slot> = sk.values.iter().cloned().map(Slot::Verbatim).collect();
        for (n, p) in memo.params.iter().enumerate() {
            let mut hits = sk.values.iter().enumerate().filter(|(_, v)| *v == p);
            let (Some((i, _)), None) = (hits.next(), hits.next()) else { return None };
            match slots.get_mut(i)? {
                Slot::Param(_) => return None,
                slot => *slot = Slot::Param(n),
            }
        }
        let entry = SkeletonEntry { shape: memo.shape.clone(), slots, params: memo.params.len() };
        let served = entry.serve(&sk.values)?;
        (served.result_key == memo.result_key
            && served.params == memo.params
            && served.shape.plan_key == memo.shape.plan_key)
            .then_some(entry)
    }

    fn weight(&self, key: &str) -> usize {
        let verbatim: usize = self
            .slots
            .iter()
            .map(|s| match s {
                Slot::Verbatim(v) => value_weight(v),
                Slot::Param(_) => 0,
            })
            .sum();
        key.len()
            + self.slots.len() * std::mem::size_of::<Slot>()
            + verbatim
            + std::mem::size_of::<SkeletonEntry>()
            + 128
    }
}

/// One cached plan template.
pub struct PlanEntry {
    /// Optimized plan with `BExpr::Param` slots.
    pub plan: Plan,
    /// Input-table fingerprints at store time; shared with the results
    /// executed from this template.
    pub deps: Arc<[Dep]>,
    /// Output column names of the template, hence of every statement
    /// substituted from it; their results share this header.
    pub names: Arc<[String]>,
    /// Output column types.
    pub types: Arc<[LogicalType]>,
}

impl PlanEntry {
    /// A template over `deps`.
    pub fn new(plan: Plan, deps: Arc<[Dep]>) -> PlanEntry {
        let (names, types) = header(&plan);
        PlanEntry { plan, deps, names, types }
    }
}

/// The shared plan cache: a text → normalization memo, a skeleton →
/// shape memo, the shapes both share, and the template store. Counters
/// aggregate across connections.
///
/// `ExecOptions::plan_cache_bytes` covers all four: half for the
/// templates, a quarter for the text memo and an eighth each for the
/// shapes and the skeletons. A memo entry is a few hundred bytes and a
/// result entry a few thousand, so with the shipped budgets (64 MiB here,
/// 256 MiB of results) the memo holds at least as many texts as the
/// result cache holds results, and a result hit normally skips the lexer
/// too. A text the memo has not seen is lexed; when its skeleton is
/// recorded, it is not parsed either.
#[derive(Default)]
pub struct PlanCache {
    memo: Lru<StmtMemo>,
    skeletons: Lru<SkeletonEntry>,
    shapes: Lru<Shape>,
    templates: Lru<PlanEntry, CacheKey>,
    /// Template hits (bind+optimize skipped).
    pub hits: AtomicU64,
    /// Template misses (statement fully planned).
    pub misses: AtomicU64,
    /// Hits rejected because a dependency's id/version moved.
    pub invalidations: AtomicU64,
    /// Templates evicted to stay within the byte budget.
    pub evictions: AtomicU64,
}

impl PlanCache {
    /// The memoized normalization of `sql`, if this exact text was seen.
    pub fn memo_get(&self, sql: &str) -> Option<Arc<StmtMemo>> {
        self.memo.get(sql)
    }

    /// Memoize a normalization under its exact text.
    pub fn memo_put(&self, sql: &str, m: Arc<StmtMemo>, budget: usize) {
        let bytes = sql.len()
            + m.result_key.len()
            + m.params.iter().map(value_weight).sum::<usize>()
            + std::mem::size_of::<StmtMemo>()
            + 128;
        self.memo.put(sql.into(), m, bytes, budget / 4);
    }

    /// Normalize a parsed SELECT (consumed, not cloned): one pass
    /// extracts the WHERE literals and renders the plan key, from which
    /// the result key follows. The parameterized AST is kept once per
    /// shape.
    pub fn normalize(&self, sel: SelectStmt, budget: usize) -> StmtMemo {
        let n = canon::normalize_select(sel);
        let result_key: Arc<str> = n.result_key().into();
        let shape = self.shapes.get(n.key.as_str()).unwrap_or_else(|| {
            // The rendering is a few characters per AST node; a node is
            // an order of magnitude larger.
            let bytes = n.key.len() * 16 + std::mem::size_of::<Shape>();
            let plan_key: Arc<str> = n.key.into();
            let shape = Arc::new(Shape { plan_key: plan_key.clone(), template_stmt: n.stmt });
            self.shapes.put(plan_key, shape.clone(), bytes, budget / 8);
            shape
        });
        StmtMemo { result_key, shape, params: n.params }
    }

    /// Token path: the memo of a text whose skeleton is recorded, built
    /// without parsing or normalizing it. `None` sends the text down the
    /// parse path.
    pub fn skeleton_get(&self, sk: &Skeleton) -> Option<StmtMemo> {
        self.skeletons.get(sk.key.as_str())?.serve(&sk.values)
    }

    /// Parse path: record `sk` for the shape `memo` was normalized to —
    /// only when the token path reproduces `memo` exactly. A statement it
    /// cannot reproduce takes the parse path every time.
    pub fn skeleton_put(&self, sk: &Skeleton, memo: &StmtMemo, budget: usize) {
        if let Some(entry) = SkeletonEntry::record(sk, memo) {
            let bytes = entry.weight(&sk.key);
            self.skeletons.put(sk.key.as_str().into(), Arc::new(entry), bytes, budget / 8);
        }
    }

    /// Fetch a template if its dependencies still hold for `tables`.
    pub fn get_valid(
        &self,
        key: &CacheKey,
        tables: &HashMap<String, Arc<TableMeta>>,
    ) -> Option<Arc<PlanEntry>> {
        self.templates.get_valid(key, |e| {
            let valid = deps_valid(&e.deps, tables);
            if !valid {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            valid
        })
    }

    /// The template under `key` if its dependencies hold for `tables`,
    /// without counting, evicting or refreshing anything.
    pub fn peek_valid(
        &self,
        key: &CacheKey,
        tables: &HashMap<String, Arc<TableMeta>>,
    ) -> Option<Arc<PlanEntry>> {
        self.templates.peek(key).filter(|e| deps_valid(&e.deps, tables))
    }

    /// Store a template under `key` within `budget` bytes.
    pub fn put(&self, key: CacheKey, entry: Arc<PlanEntry>, budget: usize) {
        // Plans are small trees; a coarse per-node proxy keeps the LRU
        // honest without a deep byte count.
        let bytes = key.weight() + plan_weight(&entry.plan) + entry.deps.len() * 64 + 128;
        let evicted = self.templates.put(key, entry, bytes, budget / 2);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True when no templates are cached.
    pub fn is_empty(&self) -> bool {
        self.templates.len() == 0
    }

    /// Drop everything (tests).
    pub fn clear(&self) {
        self.templates.clear();
        self.skeletons.clear();
        self.shapes.clear();
        self.memo.clear();
    }
}

fn value_weight(v: &Value) -> usize {
    std::mem::size_of::<Value>() + if let Value::Str(s) = v { s.len() } else { 0 }
}

fn plan_weight(p: &Plan) -> usize {
    let mut nodes = 0usize;
    fn walk(p: &Plan, n: &mut usize) {
        *n += 1;
        match p {
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopN { input, .. } => walk(input, n),
            Plan::Join { left, right, .. } => {
                walk(left, n);
                walk(right, n);
            }
            Plan::Scan { .. } | Plan::Values { .. } => {}
        }
    }
    walk(p, &mut nodes);
    nodes * 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn meta(id: u64, version: u64) -> Arc<TableMeta> {
        use monetlite_storage::catalog::TableData;
        use monetlite_types::{Field, Schema};
        let schema = Schema::new(vec![Field::new("a", LogicalType::Int)]).unwrap();
        let data = TableData::empty(&schema);
        Arc::new(TableMeta {
            id,
            name: "t".into(),
            schema,
            data,
            version,
            ordered_cols: Vec::new(),
        })
    }

    #[test]
    fn deps_track_id_and_version() {
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), meta(3, 7));
        let plan =
            Plan::Scan { table: "t".into(), projected: vec![0], filters: vec![], schema: vec![] };
        let deps = collect_deps(&plan, &tables).unwrap();
        assert_eq!(*deps, [Dep { table: "t".into(), id: 3, version: 7 }]);
        assert!(deps_valid(&deps, &tables));
        tables.insert("t".to_string(), meta(3, 8));
        assert!(!deps_valid(&deps, &tables), "version bump invalidates");
        tables.insert("t".to_string(), meta(4, 1));
        assert!(!deps_valid(&deps, &tables), "drop+create invalidates");
        tables.remove("t");
        assert!(!deps_valid(&deps, &tables), "drop invalidates");
    }

    #[test]
    fn temp_ids_are_not_cacheable() {
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), meta(TEMP_TABLE_ID_BASE + 1, 1));
        let plan =
            Plan::Scan { table: "t".into(), projected: vec![0], filters: vec![], schema: vec![] };
        assert!(collect_deps(&plan, &tables).is_none());
    }

    /// The LRU this module shipped before the recency list: victims are
    /// found by scanning the whole map for the smallest tick. Kept as the
    /// oracle the O(1) implementation is model-checked against.
    #[derive(Default)]
    struct ScanLru {
        map: HashMap<String, (u32, usize, u64)>,
        tick: u64,
        bytes: usize,
    }

    impl ScanLru {
        fn get(&mut self, key: &str) -> Option<u32> {
            self.tick += 1;
            let slot = self.map.get_mut(key)?;
            slot.2 = self.tick;
            Some(slot.0)
        }

        /// Returns the victims in eviction order.
        fn put(&mut self, key: &str, v: u32, bytes: usize, budget: usize) -> Vec<String> {
            if bytes > budget {
                return Vec::new();
            }
            self.tick += 1;
            if let Some(old) = self.map.insert(key.to_string(), (v, bytes, self.tick)) {
                self.bytes -= old.1;
            }
            self.bytes += bytes;
            let mut victims = Vec::new();
            while self.bytes > budget {
                let Some(victim) = self.map.iter().min_by_key(|(_, s)| s.2).map(|(k, _)| k.clone())
                else {
                    break;
                };
                if let Some(s) = self.map.remove(&victim) {
                    self.bytes -= s.1;
                }
                victims.push(victim);
            }
            victims
        }

        fn remove_if(&mut self, key: &str, pred: impl FnOnce(u32) -> bool) -> bool {
            match self.map.get(key) {
                Some(s) if pred(s.0) => {
                    self.bytes -= s.1;
                    self.map.remove(key);
                    true
                }
                _ => false,
            }
        }

        fn clear(&mut self) {
            self.map.clear();
            self.bytes = 0;
        }
    }

    impl<V> Lru<V> {
        /// Keys from most to least recently used (walks the whole list).
        fn keys_by_recency(&self) -> Vec<String> {
            let mut g = self.lock();
            let mut out = Vec::new();
            let mut i = g.head;
            while i != NIL {
                let n = g.node(i);
                out.push(n.key.to_string());
                i = n.next;
            }
            out
        }
    }

    // Random op sequences with mixed entry sizes and moving budgets: the
    // recency-list LRU and the scan oracle must agree on every lookup,
    // every victim, the key set, `bytes()` and `len()`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn lru_matches_the_scan_oracle(
            ops in collection::vec(0u64..u64::MAX, 1..400),
        ) {
            let lru: Lru<u32> = Lru::default();
            let mut oracle = ScanLru::default();
            for (step, op) in ops.iter().enumerate() {
                let key = format!("k{}", (op >> 8) % 24);
                let v = step as u32;
                match op % 16 {
                    0..=5 => {
                        prop_assert_eq!(lru.get(key.as_str()).map(|a| *a), oracle.get(&key));
                    }
                    6..=12 => {
                        // Sizes from tiny to larger than the smallest
                        // budget, which must be refused.
                        let bytes = [1, 40, 100, 333, 900, 2500][(op >> 16) as usize % 6];
                        let budget = [1000, 1500, 4000][(op >> 24) as usize % 3];
                        let mut before = lru.keys_by_recency();
                        let n = lru.put(key.as_str().into(), Arc::new(v), bytes, budget);
                        let victims = oracle.put(&key, v, bytes, budget);
                        prop_assert_eq!(n as usize, victims.len());
                        // The victims are exactly the oracle's, in its
                        // order: least recently used first.
                        before.retain(|k| *k != key);
                        let gone: Vec<String> =
                            before.iter().rev().take(victims.len()).cloned().collect();
                        prop_assert_eq!(gone, victims);
                    }
                    13 => {
                        prop_assert_eq!(
                            lru.remove_if(key.as_str(), |_| true),
                            oracle.remove_if(&key, |_| true)
                        );
                    }
                    14 => {
                        let want = (op >> 16) as u32 % (step as u32 + 1);
                        prop_assert_eq!(
                            lru.remove_if(key.as_str(), |a| **a == want),
                            oracle.remove_if(&key, |a| a == want)
                        );
                    }
                    _ => {
                        if op >> 16 & 7 == 0 {
                            lru.clear();
                            oracle.clear();
                        }
                    }
                }
                let mut keys = lru.keys_by_recency();
                keys.sort();
                let mut want: Vec<String> = oracle.map.keys().cloned().collect();
                want.sort();
                prop_assert_eq!(keys, want);
                prop_assert_eq!(lru.bytes(), oracle.bytes);
                prop_assert_eq!(lru.len(), oracle.map.len());
            }
            // Slots are recycled: the slab never outgrows the population
            // high-water mark (24 keys).
            prop_assert!(lru.lock().nodes.len() <= 24);
        }
    }

    fn scan_plan(table: &str) -> Plan {
        Plan::Scan { table: table.into(), projected: vec![0], filters: vec![], schema: vec![] }
    }

    fn key(statement: &str) -> CacheKey {
        let fingerprint =
            Fingerprint::new(OptFlags::default(), StatsMode::Real, &ExecOptions::default());
        CacheKey::new(&fingerprint, 0, &statement.into())
    }

    #[test]
    fn eviction_counters_count_victims() {
        // Budgets in units of one entry's weight: room for two and a half.
        let cache = PlanCache::default();
        let template = || Arc::new(PlanEntry::new(scan_plan("t"), Arc::default()));
        cache.put(key("q0"), template(), usize::MAX);
        let w = cache.templates.bytes();
        for i in 1..5 {
            // Templates get half of the plan-cache budget.
            cache.put(key(&format!("q{i}")), template(), 5 * w);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions.load(Ordering::Relaxed), 3);

        let results = crate::result_cache::ResultCache::default();
        let result = || crate::result_cache::ResultEntry {
            result: crate::QueryResult::empty(0),
            deps: Arc::default(),
        };
        results.put(key("q0"), result(), usize::MAX);
        let w = results.bytes();
        for i in 1..4 {
            results.put(key(&format!("q{i}")), result(), 2 * w + w / 2);
        }
        assert_eq!(results.len(), 2);
        assert_eq!(results.evictions.load(Ordering::Relaxed), 2);
    }

    /// Connection A fetches a template, finds it stale and is about to
    /// drop it; before it does, connection B stores a fresh one under the
    /// same key. A's removal must spare B's entry (the old `remove(key)`
    /// threw it away).
    #[test]
    fn stale_removal_spares_a_concurrently_stored_entry() {
        let lru: Lru<u32> = Lru::default();
        lru.put("k".into(), Arc::new(1), 10, 100);
        let got = lru.get_valid("k", |stale| {
            assert_eq!(*stale, 1);
            lru.put("k".into(), Arc::new(2), 10, 100); // connection B
            false
        });
        assert!(got.is_none());
        assert_eq!(lru.get("k").as_deref(), Some(&2), "the fresh entry was discarded");
        // Uncontended, the stale entry itself goes.
        assert!(lru.get_valid("k", |_| false).is_none());
        assert!(lru.get("k").is_none());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn keys_compare_fingerprints_by_content() {
        let (a, b) = (key("select 1"), key("select 1"));
        assert!(!Arc::ptr_eq(&a.fingerprint, &b.fingerprint));
        assert!(a == b, "equal options on two connections must share entries");
        let other = CacheKey {
            fingerprint: Fingerprint::new(
                OptFlags::default(),
                StatsMode::TableRowsOnly,
                &ExecOptions::default(),
            ),
            ..a.clone()
        };
        assert!(a != other);
        assert!(a != CacheKey { views_epoch: 1, ..a.clone() });
    }

    #[test]
    fn lru_evicts_by_bytes() {
        let lru: Lru<u32> = Lru::default();
        lru.put("a".into(), Arc::new(1), 400, 1000);
        lru.put("b".into(), Arc::new(2), 400, 1000);
        assert!(lru.get("a").is_some()); // refresh a
        lru.put("c".into(), Arc::new(3), 400, 1000); // evicts b (LRU)
        assert!(lru.get("b").is_none());
        assert!(lru.get("a").is_some());
        assert!(lru.get("c").is_some());
        assert!(lru.bytes() <= 1000);
        // Oversized entries are refused outright.
        lru.put("huge".into(), Arc::new(9), 2000, 1000);
        assert!(lru.get("huge").is_none());
    }
}
