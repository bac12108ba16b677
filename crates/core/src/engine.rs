//! The JS-CERES analysis engine.
//!
//! One [`Engine`] instance backs one instrumented run. The `__ceres_*` host
//! functions registered by [`attach_engine`] feed it: loop enter/iter/exit
//! maintain the characterization stack and per-loop statistics; the
//! dependence hooks maintain stamps, snapshots and warnings; tagged host
//! objects (DOM/Canvas/WebGL) are attributed to the loops open at access
//! time via the interpreter's [`Monitor`].
//!
//! # Hot-path design (see `docs/PERFORMANCE.md`)
//!
//! The dependence hooks fire per property access, so everything they touch
//! is keyed by interned [`Sym`]s and small `Copy` ids rather than owned
//! strings:
//!
//! * loop stamps live in an interned table (`stamps`); side tables store
//!   `u32` stamp ids, and the stamp for the current stack is built at most
//!   once per stack mutation instead of once per write;
//! * accesses are described by fixed-size [`hooks::AccessEvent`]s and
//!   processed as the hook fires;
//! * a binding's declaration stamp lives in the binding itself
//!   ([`ceres_interp::env::Binding::stamp`]), so stamping a local is one
//!   store into a binding the hook already resolved, not a map insert;
//! * task read/write sets are FxHash sets and the runtime types seen per
//!   subject are a bitmask over the `typeof` names;
//! * characterizations are computed as per-loop bitsets ([`CharBits`]) and
//!   expanded into rendered [`Characterization`]s only when a *new*
//!   deduplicated warning is materialized.

use crate::stack::{
    characterize_write, characterize_write_bits, empty_stamp, flow_dependence,
    flow_dependence_bits, is_problematic, CharBits, Characterization, StackEntry, Stamp,
    CHAR_BITS_MAX_DEPTH,
};
use crate::welford::Welford;
use ceres_ast::{LoopId, LoopInfo};
use ceres_instrument::{
    hooks::{self, AccessEvent, AccessKind},
    Mode,
};
use ceres_interp::intern::{self, FxHashMap, FxHashSet, Sym};
use ceres_interp::{ops, CallCtx, Interp, JsResult, Monitor, Value};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Per-syntactic-loop statistics (paper Sec. 3.2).
#[derive(Debug, Clone, Default)]
pub struct LoopRecord {
    /// "the number of times it is encountered at runtime".
    pub instances: u64,
    /// Trip count per instance (total/avg/variance via Welford).
    pub trips: Welford,
    /// Running time per instance, in virtual-clock ticks (includes nested
    /// loops, as in the paper's loop-nest accounting).
    pub time_ticks: Welford,
    /// Set when recursion re-entered this loop before it exited; the paper
    /// "raises a warning, and discards the analysis results for the
    /// affected loop nest".
    pub recursion_tainted: bool,
}

/// Kinds of dependence warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WarningKind {
    /// (a) write to a variable declared outside the current iteration.
    VarWrite,
    /// (b) write to a property of an object shared across iterations.
    SharedPropWrite,
    /// (c) read of a property written in a different iteration (flow/RAW).
    FlowRead,
    /// Extension: write-after-write on the same property location observed
    /// across iterations (output dependence evidence).
    WawWrite,
    /// Recursion grew the loop stack; results for the nest are discarded.
    Recursion,
}

impl WarningKind {
    pub fn describe(&self) -> &'static str {
        match self {
            WarningKind::VarWrite => "write to variable declared outside the loop iteration",
            WarningKind::SharedPropWrite => "write to property of object shared between iterations",
            WarningKind::FlowRead => "read of property written in a different iteration (flow)",
            WarningKind::WawWrite => "repeated write to the same property location (output)",
            WarningKind::Recursion => "recursive call re-entered the loop; nest results discarded",
        }
    }
}

/// One (deduplicated) dependence warning.
#[derive(Debug, Clone)]
pub struct Warning {
    pub kind: WarningKind,
    /// Human-readable subject: `p`, `com.x`, `data[*]`, `bodies[]`, …
    pub subject: String,
    pub characterization: Characterization,
    /// Write-op spelling for variable writes ("=", "+=", "++", "init", …).
    pub op: Option<String>,
    /// The top-level loop open when the warning fired (Table 3 nest).
    pub nest_root: LoopId,
    /// How many dynamic accesses collapsed into this warning.
    pub count: u64,
}

/// Key-diversity statistics per written subject; used by the difficulty
/// classifier to tell disjoint writes (`data[i]`, distinct `i` per
/// iteration) from conflicting ones (`com.x` every iteration).
#[derive(Debug, Clone, Default)]
pub struct SubjectStats {
    pub writes: u64,
    /// Innermost (loop, instance) the current window belongs to.
    ctx: Option<(LoopId, u64)>,
    ctx_writes: u64,
    ctx_locations: FxHashSet<(u64, Sym)>,
    /// Sum of per-instance disjointness ratios and window count.
    ratio_sum: f64,
    windows: u64,
}

const KEYSET_CAP: usize = 4096;

impl SubjectStats {
    fn record(&mut self, obj_id: u64, key: Sym, ctx: Option<(LoopId, u64)>) {
        self.writes += 1;
        if self.ctx != ctx {
            self.fold_window();
            self.ctx = ctx;
        }
        self.ctx_writes += 1;
        if self.ctx_locations.len() < KEYSET_CAP {
            self.ctx_locations.insert((obj_id, key));
        }
    }

    fn fold_window(&mut self) {
        if self.ctx_writes > 0 {
            self.ratio_sum += (self.ctx_locations.len() as f64 / self.ctx_writes as f64).min(1.0);
            self.windows += 1;
        }
        self.ctx_writes = 0;
        self.ctx_locations.clear();
    }

    /// Mean, over innermost loop *instances*, of the fraction of writes
    /// that hit a distinct location within that instance. 1.0 ⇒ each
    /// iteration writes its own location (`out[i] = …`, or one field of a
    /// per-iteration object); near 0 ⇒ every iteration hits the same
    /// location (`acc.v = …`).
    pub fn disjointness(&self) -> f64 {
        let mut ratio_sum = self.ratio_sum;
        let mut windows = self.windows;
        if self.ctx_writes > 0 {
            ratio_sum += (self.ctx_locations.len() as f64 / self.ctx_writes as f64).min(1.0);
            windows += 1;
        }
        if windows == 0 {
            1.0
        } else {
            ratio_sum / windows as f64
        }
    }
}

/// The engine state shared by all hooks of one run.
pub struct Engine {
    pub mode: Mode,
    /// Loop id → source info (kind, line), from the instrumentation pass.
    pub loops: HashMap<LoopId, LoopInfo>,

    // --- observability (ceres_core::obs) ---
    /// Per-hook invocation counts for this run.
    pub tally: hooks::HookTally,
    /// Pushes onto the characterization stack (loop entries, including
    /// recursive re-entries).
    pub stack_pushes: u64,

    // --- characterization stack ---
    stack: Vec<StackEntry>,
    start_ticks: Vec<u64>,
    instance_counters: FxHashMap<LoopId, u64>,

    // --- loop profiling ---
    pub records: HashMap<LoopId, LoopRecord>,
    /// loop → top-level loop of the nest it ran inside.
    pub nest_root: HashMap<LoopId, LoopId>,

    // --- lightweight profiling ---
    lw_open: u64,
    lw_start: u64,
    /// Total ticks with ≥1 loop open (the paper's "time spent in loops").
    pub lw_loop_ticks: u64,

    // --- dependence analysis ---
    /// Restrict recording to nests containing this loop (the paper's
    /// "focus on a specific loop").
    pub focus: Option<LoopId>,
    /// Interned loop-stack stamps. Entry 0 is the empty stamp; events and
    /// all side tables refer to stamps by `u32` index.
    stamps: Vec<Stamp>,
    /// Cached id of the stamp for the *current* stack, invalidated on
    /// every stack mutation — one stamp allocation per stack epoch, not
    /// one per access.
    cur_stamp: Option<u32>,
    object_stamps: FxHashMap<u64, u32>,
    write_snapshots: FxHashMap<(u64, Sym), u32>,
    pub warnings: Vec<Warning>,
    /// (kind, subject, op) → indices of materialized warnings with that
    /// key; candidates are distinguished by characterization (usually 1).
    warning_index: FxHashMap<(WarningKind, Sym, Sym), Vec<usize>>,
    /// (base, key) → composed subject (`p.vX`, `data[*]`) cache, so the
    /// `format!` runs once per distinct pair, not per access.
    subject_cache: FxHashMap<(Sym, Sym), Sym>,
    pub subject_stats: FxHashMap<Sym, SubjectStats>,

    // --- runtime type observation (paper Sec. 2.4 / 4.2) ---
    /// (subject, binding id) → runtime types written *inside loops*, as a
    /// bitmask over [`TYPEOF_NAMES`] (bit `i` = `TYPEOF_NAMES[i]`). Keyed
    /// per binding so unrelated locals that share a name in different
    /// functions don't alias; a key with more than one type (ignoring
    /// undefined/null, per the paper's definition) is polymorphic.
    /// Property subjects use binding id 0.
    pub observed_types: FxHashMap<(Sym, u64), u8>,

    // --- task-parallelism limit study (Fortuna et al. baseline) ---
    /// Completed tasks in execution order.
    pub tasks: Vec<crate::tasks::TaskRecord>,
    task_depth: usize,

    // --- DOM attribution ---
    /// loop id → host-object tags accessed while it was open.
    pub dom_by_loop: HashMap<LoopId, BTreeSet<&'static str>>,
    /// Host accesses observed with no loop open.
    pub dom_outside_loops: u64,
}

impl Engine {
    pub fn new(mode: Mode, loops: Vec<LoopInfo>) -> Engine {
        Engine {
            mode,
            loops: loops.into_iter().map(|l| (l.id, l)).collect(),
            tally: hooks::HookTally::new(),
            stack_pushes: 0,
            stack: Vec::new(),
            start_ticks: Vec::new(),
            instance_counters: FxHashMap::default(),
            records: HashMap::new(),
            nest_root: HashMap::new(),
            lw_open: 0,
            lw_start: 0,
            lw_loop_ticks: 0,
            focus: None,
            stamps: vec![empty_stamp()],
            cur_stamp: Some(0),
            object_stamps: FxHashMap::default(),
            write_snapshots: FxHashMap::default(),
            warnings: Vec::new(),
            warning_index: FxHashMap::default(),
            subject_cache: FxHashMap::default(),
            subject_stats: FxHashMap::default(),
            observed_types: FxHashMap::default(),
            tasks: Vec::new(),
            task_depth: 0,
            dom_by_loop: HashMap::new(),
            dom_outside_loops: 0,
        }
    }

    /// Id of the stamp for the current stack, building (and caching) the
    /// table entry on first use after a stack mutation.
    pub fn current_stamp_id(&mut self) -> u32 {
        if self.stack.is_empty() {
            return 0;
        }
        if let Some(id) = self.cur_stamp {
            return id;
        }
        let id = self.stamps.len() as u32;
        self.stamps.push(Rc::from(self.stack.as_slice()));
        self.cur_stamp = Some(id);
        id
    }

    /// Was dependence recording active for an access under `entries`
    /// (inside a loop; inside the focused nest when a focus is set)?
    fn recording_at(&self, entries: &[StackEntry]) -> bool {
        if entries.is_empty() {
            return false;
        }
        match self.focus {
            None => true,
            Some(f) => entries.iter().any(|e| e.loop_id == f),
        }
    }

    // ---------------- access events ----------------

    /// Record one access, in program order. Every event carries the stamp
    /// id of the loop stack at access time.
    pub fn push_event(&mut self, ev: AccessEvent) {
        self.process_event(&ev);
    }

    /// Does nothing: accesses are processed as they are pushed, so there
    /// is no buffer to drain. Kept only because the benchmark harness
    /// (`perfbench/src/layers.rs`) still calls it; nothing in the
    /// workspace does.
    pub fn flush_events(&mut self) {}

    fn process_event(&mut self, ev: &AccessEvent) {
        match ev.kind {
            AccessKind::ObjStamp => {
                self.object_stamps.insert(ev.target, ev.stamp);
            }
            AccessKind::VarWrite => {
                if ev.binding != 0 {
                    self.task_write(crate::tasks::binding_location(ev.binding));
                }
                self.var_write(ev);
            }
            AccessKind::PropRead => {
                self.task_read(crate::tasks::object_location(ev.target));
                self.prop_read(ev);
            }
            AccessKind::PropReadCompound => self.prop_read(ev),
            AccessKind::PropWrite => {
                self.task_write(crate::tasks::object_location(ev.target));
                self.prop_write(ev);
            }
        }
    }

    // ---------------- loop hooks ----------------

    fn lw_enter(&mut self, now: u64) {
        if self.lw_open == 0 {
            self.lw_start = now;
        }
        self.lw_open += 1;
    }

    fn lw_exit(&mut self, now: u64) {
        if self.lw_open > 0 {
            self.lw_open -= 1;
            if self.lw_open == 0 {
                self.lw_loop_ticks += now - self.lw_start;
            }
        }
    }

    fn loop_enter(&mut self, id: LoopId, now: u64) {
        // Recursion detection (paper Sec. 3.3): same syntactic loop opened
        // again before it closed.
        if self.stack.iter().any(|e| e.loop_id == id) {
            let root = self.stack.first().map(|e| e.loop_id).unwrap_or(id);
            self.records.entry(id).or_default().recursion_tainted = true;
            self.records.entry(root).or_default().recursion_tainted = true;
            let name = self
                .loops
                .get(&id)
                .map(|l| l.display_name())
                .unwrap_or_else(|| format!("{id}"));
            self.push_warning_vec(
                WarningKind::Recursion,
                intern::intern(&name),
                Sym::NONE,
                Vec::new(),
                root,
            );
        }
        let counter = self.instance_counters.entry(id).or_insert(0);
        *counter += 1;
        let instance = *counter;
        self.nest_root
            .entry(id)
            .or_insert_with(|| self.stack.first().map(|e| e.loop_id).unwrap_or(id));
        self.stack.push(StackEntry {
            loop_id: id,
            instance,
            iteration: 0,
        });
        self.cur_stamp = None;
        self.stack_pushes += 1;
        self.start_ticks.push(now);
        // Lightweight totals also work in the richer modes so Table 2 can be
        // cross-checked against loop-profile runs.
        self.lw_enter(now);
    }

    fn iter(&mut self, id: LoopId) {
        // The hook sits at the top of the loop body, so the innermost open
        // loop is (in well-formed programs) the one being iterated. Scan
        // from the top for robustness under recursion taint.
        if let Some(e) = self.stack.iter_mut().rev().find(|e| e.loop_id == id) {
            e.iteration += 1;
            self.cur_stamp = None;
        }
    }

    fn loop_exit(&mut self, id: LoopId, now: u64) {
        // Pop until we find the entry (robust under abnormal unwinding).
        while let Some(top) = self.stack.pop() {
            self.cur_stamp = None;
            let start = self.start_ticks.pop().unwrap_or(now);
            let rec = self.records.entry(top.loop_id).or_default();
            rec.instances += 1;
            rec.trips.add(top.iteration as f64);
            rec.time_ticks.add((now - start) as f64);
            self.lw_exit(now);
            if top.loop_id == id {
                break;
            }
        }
    }

    // ---------------- dependence processing ----------------

    /// Compose (and cache) a warning subject: `p.vX`, `data[*]`, `com.x`,
    /// or `*.x` when the base expression was not a variable. Numeric keys
    /// collapse to `[*]` so index sweeps produce one subject.
    fn subject_sym(&mut self, base: Sym, key: Sym) -> Sym {
        if let Some(&s) = self.subject_cache.get(&(base, key)) {
            return s;
        }
        let base_str: Rc<str> = if base.is_none() {
            Rc::from("*")
        } else {
            intern::resolve(base)
        };
        let s = if key.is_numeric() {
            intern::intern(&format!("{base_str}[*]"))
        } else {
            intern::intern(&format!("{base_str}.{}", intern::resolve(key)))
        };
        self.subject_cache.insert((base, key), s);
        s
    }

    /// Entries of the stamp table entry `id`.
    fn stamp_entries(&self, id: u32) -> Stamp {
        self.stamps[id as usize].clone()
    }

    /// Deduplicate-or-materialize a warning from its compact form. The
    /// dedup key is (kind, subject, op) plus the characterization, which
    /// is compared level-by-level against candidates without allocating.
    fn push_warning_bits(
        &mut self,
        kind: WarningKind,
        subject: Sym,
        op: Sym,
        bits: CharBits,
        cur: &[StackEntry],
        root: LoopId,
    ) {
        let key = (kind, subject, op);
        if let Some(cands) = self.warning_index.get(&key) {
            for &i in cands {
                if bits.matches(&self.warnings[i].characterization, cur) {
                    self.warnings[i].count += 1;
                    return;
                }
            }
        }
        let w = Warning {
            kind,
            subject: intern::resolve(subject).to_string(),
            characterization: bits.expand(cur),
            op: op.is_some().then(|| intern::resolve(op).to_string()),
            nest_root: root,
            count: 1,
        };
        self.warning_index
            .entry(key)
            .or_default()
            .push(self.warnings.len());
        self.warnings.push(w);
    }

    /// [`Engine::push_warning_bits`] for already-materialized
    /// characterizations (recursion warnings, >64-deep stacks).
    fn push_warning_vec(
        &mut self,
        kind: WarningKind,
        subject: Sym,
        op: Sym,
        c: Characterization,
        root: LoopId,
    ) {
        let key = (kind, subject, op);
        if let Some(cands) = self.warning_index.get(&key) {
            for &i in cands {
                if self.warnings[i].characterization == c {
                    self.warnings[i].count += 1;
                    return;
                }
            }
        }
        let w = Warning {
            kind,
            subject: intern::resolve(subject).to_string(),
            characterization: c,
            op: op.is_some().then(|| intern::resolve(op).to_string()),
            nest_root: root,
            count: 1,
        };
        self.warning_index
            .entry(key)
            .or_default()
            .push(self.warnings.len());
        self.warnings.push(w);
    }

    fn var_write(&mut self, ev: &AccessEvent) {
        let cur = self.stamp_entries(ev.stamp);
        if !self.recording_at(&cur) {
            return;
        }
        // Unstamped binding (implicit global, host-provided):
        // conservatively "created before all loops" (the empty stamp).
        let stamp = self.stamp_entries(binding_stamp_id(ev).unwrap_or(0));
        let root = cur[0].loop_id;
        if cur.len() <= CHAR_BITS_MAX_DEPTH {
            let bits = characterize_write_bits(&stamp, &cur);
            if bits.problematic() {
                self.push_warning_bits(WarningKind::VarWrite, ev.key, ev.op, bits, &cur, root);
            }
        } else {
            let c = characterize_write(&stamp, &cur);
            if is_problematic(&c) {
                self.push_warning_vec(WarningKind::VarWrite, ev.key, ev.op, c, root);
            }
        }
    }

    fn prop_write(&mut self, ev: &AccessEvent) {
        let cur = self.stamp_entries(ev.stamp);
        if !self.recording_at(&cur) {
            return;
        }
        let subject = self.subject_sym(ev.base, ev.key);
        // Effective stamp: of the object's creation stamp and the base
        // variable's binding stamp, take the one matching the *current*
        // stack deeper — i.e. the freshest context the location is reachable
        // from. This is what reproduces the paper's Fig. 6 output: `p.vX`
        // characterizes through `p`'s per-activation binding (stamped inside
        // the while), not through the particle object (created during
        // setup, before any of the open loops). See DESIGN.md §4.
        let obj_stamp = match self.object_stamps.get(&ev.target) {
            Some(&sid) => self.stamp_entries(sid),
            None => self.stamp_entries(0),
        };
        let base_stamp = binding_stamp_id(ev).map(|sid| self.stamp_entries(sid));
        let eff = match base_stamp {
            Some(b) if matched_prefix_len(&b, &cur) > matched_prefix_len(&obj_stamp, &cur) => b,
            _ => obj_stamp,
        };
        let root = cur[0].loop_id;
        let ctx = cur.last().map(|e| (e.loop_id, e.instance));
        self.subject_stats
            .entry(subject)
            .or_default()
            .record(ev.target, ev.key, ctx);
        // Output-dependence evidence: same location written in another
        // iteration we are still inside of. One table probe both fetches
        // the previous write's stamp and records this one.
        let prev = match self.write_snapshots.entry((ev.target, ev.key)) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                Some(self.stamps[std::mem::replace(o.get_mut(), ev.stamp) as usize].clone())
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(ev.stamp);
                None
            }
        };
        if cur.len() <= CHAR_BITS_MAX_DEPTH {
            let bits = characterize_write_bits(&eff, &cur);
            if bits.problematic() {
                self.push_warning_bits(
                    WarningKind::SharedPropWrite,
                    subject,
                    ev.op,
                    bits,
                    &cur,
                    root,
                );
            }
            if let Some(prev) = prev {
                if let Some(bits) = flow_dependence_bits(&prev, &cur) {
                    self.push_warning_bits(
                        WarningKind::WawWrite,
                        subject,
                        Sym::NONE,
                        bits,
                        &cur,
                        root,
                    );
                }
            }
        } else {
            let c = characterize_write(&eff, &cur);
            if is_problematic(&c) {
                self.push_warning_vec(WarningKind::SharedPropWrite, subject, ev.op, c, root);
            }
            if let Some(prev) = prev {
                if let Some(c) = flow_dependence(&prev, &cur) {
                    self.push_warning_vec(WarningKind::WawWrite, subject, Sym::NONE, c, root);
                }
            }
        }
    }

    fn prop_read(&mut self, ev: &AccessEvent) {
        let cur = self.stamp_entries(ev.stamp);
        if !self.recording_at(&cur) {
            return;
        }
        let Some(&snap) = self.write_snapshots.get(&(ev.target, ev.key)) else {
            return;
        };
        let snapshot = self.stamp_entries(snap);
        let root = cur[0].loop_id;
        if cur.len() <= CHAR_BITS_MAX_DEPTH {
            if let Some(bits) = flow_dependence_bits(&snapshot, &cur) {
                let subject = self.subject_sym(ev.base, ev.key);
                self.push_warning_bits(WarningKind::FlowRead, subject, Sym::NONE, bits, &cur, root);
            }
        } else if let Some(c) = flow_dependence(&snapshot, &cur) {
            let subject = self.subject_sym(ev.base, ev.key);
            self.push_warning_vec(WarningKind::FlowRead, subject, Sym::NONE, c, root);
        }
    }

    /// Record the runtime type written to `subject` (only inside loops —
    /// the paper inspects "polymorphic variable accesses … within the
    /// computationally-intensive loops").
    fn observe_type(&mut self, subject: Sym, binding: u64, value: &Value) {
        if self.stack.is_empty() {
            return;
        }
        // The paper: "We do not consider a variable polymorphic if it
        // changes between defined, undefined, and null."
        let ty = match value {
            Value::Undefined | Value::Null => return,
            v => v.type_of(),
        };
        let bit = TYPEOF_NAMES
            .iter()
            .position(|&n| n == ty)
            .expect("Value::type_of returns a typeof name");
        *self.observed_types.entry((subject, binding)).or_default() |= 1 << bit;
    }

    /// Subjects observed with more than one runtime type inside loops,
    /// each with its type names in sorted order.
    pub fn polymorphic_subjects(&self) -> Vec<(String, Vec<&'static str>)> {
        let mut out: Vec<(String, Vec<&'static str>)> = self
            .observed_types
            .iter()
            .filter(|(_, tys)| tys.count_ones() > 1)
            .map(|((s, _), &tys)| {
                let names = TYPEOF_NAMES
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| tys & (1 << i) != 0)
                    .map(|(_, &n)| n)
                    .collect();
                (intern::resolve(*s).to_string(), names)
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Key-diversity statistics for a rendered subject (`data[*]`,
    /// `com.x`), as the classifier and reports refer to subjects by text.
    pub fn subject_stats_for(&self, subject: &str) -> Option<&SubjectStats> {
        self.subject_stats.get(&intern::intern(subject))
    }

    /// Open a task (nested opens fold into the outermost).
    pub fn begin_task(&mut self, label: &str, now_ticks: u64) {
        self.task_depth += 1;
        if self.task_depth == 1 {
            self.tasks.push(crate::tasks::TaskRecord {
                label: label.to_string(),
                start_ticks: now_ticks,
                end_ticks: now_ticks,
                reads: FxHashSet::default(),
                writes: FxHashSet::default(),
            });
        }
    }

    /// Close the innermost task.
    pub fn end_task(&mut self, now_ticks: u64) {
        if self.task_depth > 0 {
            self.task_depth -= 1;
            if self.task_depth == 0 {
                if let Some(t) = self.tasks.last_mut() {
                    t.end_ticks = now_ticks;
                }
            }
        }
    }

    fn task_read(&mut self, location: u64) {
        if self.task_depth > 0 {
            if let Some(t) = self.tasks.last_mut() {
                t.reads.insert(location);
            }
        }
    }

    fn task_write(&mut self, location: u64) {
        if self.task_depth > 0 {
            if let Some(t) = self.tasks.last_mut() {
                t.writes.insert(location);
            }
        }
    }

    fn host_access_inner(&mut self, tag: &'static str) {
        if self.stack.is_empty() {
            self.dom_outside_loops += 1;
            return;
        }
        for e in &self.stack {
            self.dom_by_loop.entry(e.loop_id).or_default().insert(tag);
        }
    }

    // ---------------- results ----------------

    /// Depth of the open-loop stack (diagnostics).
    pub fn open_loops(&self) -> usize {
        self.stack.len()
    }

    /// Warnings attributed to the nest rooted at `root`.
    pub fn warnings_for_nest(&self, root: LoopId) -> Vec<&Warning> {
        self.warnings
            .iter()
            .filter(|w| w.nest_root == root)
            .collect()
    }
}

/// Every `typeof` name, sorted: bit `i` of an [`Engine::observed_types`]
/// mask stands for `TYPEOF_NAMES[i]`, so walking the bits upward yields
/// the names in sorted order.
const TYPEOF_NAMES: [&str; 6] = [
    "boolean",
    "function",
    "number",
    "object",
    "string",
    "undefined",
];

/// The stamp-table id of the binding an access went through, or `None`
/// when there is no binding or it was never stamped (implicit and host
/// globals) — both mean "created before all loops".
fn binding_stamp_id(ev: &AccessEvent) -> Option<u32> {
    (ev.binding != 0 && ev.binding_stamp != 0).then_some(ev.binding_stamp)
}

/// How many leading levels of `stamp` match `current` exactly (same loop,
/// instance, and iteration).
fn matched_prefix_len(stamp: &[StackEntry], current: &[StackEntry]) -> usize {
    stamp
        .iter()
        .zip(current)
        .take_while(|(s, c)| {
            s.loop_id == c.loop_id && s.instance == c.instance && s.iteration == c.iteration
        })
        .count()
}

/// Intern a property-key value: numbers take the inline fast path (no
/// allocation for array indices), strings reuse their `Rc` allocation.
fn sym_of_key(v: &Value) -> Sym {
    match v {
        Value::Num(n) => Sym::from_f64(*n).unwrap_or_else(|| intern::intern(&ops::to_string(v))),
        Value::Str(s) => intern::intern_rc(s),
        other => intern::intern(&ops::to_string(other)),
    }
}

/// Intern an optional base-variable name argument ([`Sym::NONE`] when the
/// rewriter passed `null`).
fn opt_sym(v: &Value) -> Sym {
    match v {
        Value::Str(s) => intern::intern_rc(s),
        _ => Sym::NONE,
    }
}

/// Wrapper implementing the interpreter's [`Monitor`] for DOM attribution.
struct EngineMonitor(Rc<std::cell::RefCell<Engine>>);

impl Monitor for EngineMonitor {
    fn host_access(&self, tag: &'static str, _op: &str) {
        // May be called re-entrantly from hooks only *after* they dropped
        // their borrow (hook discipline: compute, drop, call interp).
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.host_access_inner(tag);
        }
    }

    fn task_begin(&self, label: &str, now_ticks: u64) {
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.begin_task(label, now_ticks);
        }
    }

    fn task_end(&self, now_ticks: u64) {
        if let Ok(mut eng) = self.0.try_borrow_mut() {
            eng.end_task(now_ticks);
        }
    }
}

/// Shared engine handle.
pub type EngineRef = Rc<std::cell::RefCell<Engine>>;

/// Create an engine for `mode`, register every `__ceres_*` hook and the DOM
/// monitor on `interp`, and return the shared handle.
pub fn attach_engine(interp: &mut Interp, mode: Mode, loops: Vec<LoopInfo>) -> EngineRef {
    let engine: EngineRef = Rc::new(std::cell::RefCell::new(Engine::new(mode, loops)));

    interp.monitor = Some(Rc::new(EngineMonitor(engine.clone())));

    let arg = |args: &[Value], i: usize| args.get(i).cloned().unwrap_or(Value::Undefined);

    // Hot-path symbols interned once at registration time.
    let eq_sym = intern::intern("=");
    let inc_sym = intern::intern("++");
    let push_sym = intern::intern("push");
    let elements_sym = intern::intern("<elements>");
    let mutating_syms: Rc<[Sym]> = MUTATING_ARRAY_METHODS
        .iter()
        .map(|m| intern::intern(m))
        .collect();

    // Tally indices are resolved once here; each hook then bumps its
    // counter with a single array add (the obs layer must not perturb the
    // overhead ledger it measures).
    let idx = hooks::hook_index;

    // --- lightweight ---
    {
        let eng = engine.clone();
        let i = idx(hooks::LW_ENTER);
        interp.register_native(hooks::LW_ENTER, move |interp, _ctx, _args| {
            let now = interp.clock.now_ticks();
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            e.lw_enter(now);
            Ok(Value::Undefined)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::LW_EXIT);
        interp.register_native(hooks::LW_EXIT, move |interp, _ctx, _args| {
            let now = interp.clock.now_ticks();
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            e.lw_exit(now);
            Ok(Value::Undefined)
        });
    }

    // --- loop profiling ---
    {
        let eng = engine.clone();
        let i = idx(hooks::LOOP_ENTER);
        interp.register_native(hooks::LOOP_ENTER, move |interp, _ctx, args| {
            let id = LoopId(ops::to_number(&arg(args, 0)) as u32);
            let now = interp.clock.now_ticks();
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            e.loop_enter(id, now);
            Ok(Value::Undefined)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::ITER);
        interp.register_native(hooks::ITER, move |_interp, _ctx, args| {
            let id = LoopId(ops::to_number(args.first().unwrap_or(&Value::Undefined)) as u32);
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            e.iter(id);
            Ok(Value::Undefined)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::LOOP_EXIT);
        interp.register_native(hooks::LOOP_EXIT, move |interp, _ctx, args| {
            let id = LoopId(ops::to_number(&arg(args, 0)) as u32);
            let now = interp.clock.now_ticks();
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            e.loop_exit(id, now);
            Ok(Value::Undefined)
        });
    }

    // --- dependence ---
    {
        let eng = engine.clone();
        let i = idx(hooks::DECLVARS);
        interp.register_native(hooks::DECLVARS, move |interp, ctx, args| {
            // Stamping bindings copies the loop stack per name.
            interp.clock.tick(2 * args.len() as u64);
            eng.borrow_mut().tally.bump(i);
            let Some(scope) = &ctx.caller_scope else {
                return Ok(Value::Undefined);
            };
            let stamp = eng.borrow_mut().current_stamp_id();
            for a in args {
                if let Value::Str(name) = a {
                    if let Some(b) = scope.lookup_sym(intern::intern_rc(name)) {
                        b.borrow_mut().stamp = stamp;
                    }
                }
            }
            Ok(Value::Undefined)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::WRVAR);
        interp.register_native(hooks::WRVAR, move |interp, ctx, args| {
            // Scope lookup + stamp diff against the current stack.
            interp.clock.tick(8);
            let name = sym_of_key(args.first().unwrap_or(&Value::Undefined));
            let op = match args.get(1) {
                Some(Value::Str(s)) => intern::intern_rc(s),
                _ => eq_sym,
            };
            let (binding_id, binding_stamp) = binding_of(ctx, name);
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            let stamp = e.current_stamp_id();
            e.push_event(AccessEvent {
                kind: AccessKind::VarWrite,
                target: 0,
                binding: binding_id,
                binding_stamp,
                key: name,
                base: Sym::NONE,
                op,
                stamp,
            });
            // When the rewriter threads the assigned value through the
            // hook (3-argument form), observe its runtime type and pass
            // it along unchanged.
            if let Some(value) = args.get(2) {
                e.observe_type(name, binding_id, value);
                return Ok(value.clone());
            }
            Ok(Value::Undefined)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::WRAP);
        interp.register_native(hooks::WRAP, move |interp, _ctx, args| {
            // The Proxy wrap: snapshot the loop stack for the new object.
            interp.clock.tick(4);
            let v = arg(args, 0);
            let mut e = eng.borrow_mut();
            e.tally.bump(i);
            if let Value::Object(o) = &v {
                let stamp = e.current_stamp_id();
                e.push_event(AccessEvent {
                    kind: AccessKind::ObjStamp,
                    target: o.id(),
                    binding: 0,
                    binding_stamp: 0,
                    key: Sym::NONE,
                    base: Sym::NONE,
                    op: Sym::NONE,
                    stamp,
                });
            }
            Ok(v)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::GETPROP);
        interp.register_native(hooks::GETPROP, move |interp, _ctx, args| {
            // Snapshot lookup + flow-dependence diff.
            interp.clock.tick(6);
            let obj = args.first().unwrap_or(&Value::Undefined);
            let key = sym_of_key(args.get(1).unwrap_or(&Value::Undefined));
            let base = opt_sym(args.get(2).unwrap_or(&Value::Undefined));
            {
                let mut e = eng.borrow_mut();
                e.tally.bump(i);
                if let Value::Object(o) = obj {
                    let stamp = e.current_stamp_id();
                    e.push_event(AccessEvent {
                        kind: AccessKind::PropRead,
                        target: o.id(),
                        binding: 0,
                        binding_stamp: 0,
                        key,
                        base,
                        op: Sym::NONE,
                        stamp,
                    });
                }
            }
            get_prop_fast(interp, obj, key)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::SETPROP);
        interp.register_native(hooks::SETPROP, move |interp, ctx, args| {
            // Effective-stamp diff, WAW check, snapshot update.
            interp.clock.tick(10);
            eng.borrow_mut().tally.bump(i);
            let obj = args.first().unwrap_or(&Value::Undefined);
            let key = sym_of_key(args.get(1).unwrap_or(&Value::Undefined));
            let value = arg(args, 2);
            let base = opt_sym(args.get(3).unwrap_or(&Value::Undefined));
            record_prop_write(&eng, ctx, obj, key, base, eq_sym, Some(&value));
            set_prop_fast(interp, obj, key, value.clone())?;
            Ok(value)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::SETPROP2);
        interp.register_native(hooks::SETPROP2, move |interp, ctx, args| {
            // Read check + write check + compound evaluation.
            interp.clock.tick(14);
            eng.borrow_mut().tally.bump(i);
            let obj = arg(args, 0);
            let key = sym_of_key(&arg(args, 1));
            let op = sym_of_key(&arg(args, 2));
            let value = arg(args, 3);
            let base = opt_sym(&arg(args, 4));
            // Compound assignment reads the old value first.
            record_prop_read(&eng, &obj, key, base);
            let old = get_prop_fast(interp, &obj, key)?;
            let new = apply_binop(&intern::resolve(op), &old, &value);
            record_prop_write(&eng, ctx, &obj, key, base, op, None);
            set_prop_fast(interp, &obj, key, new.clone())?;
            Ok(new)
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::UPDATE_PROP);
        interp.register_native(hooks::UPDATE_PROP, move |interp, ctx, args| {
            interp.clock.tick(12);
            eng.borrow_mut().tally.bump(i);
            let obj = arg(args, 0);
            let key = sym_of_key(&arg(args, 1));
            let delta = ops::to_number(&arg(args, 2));
            let prefix = ops::to_number(&arg(args, 3)) != 0.0;
            let base = opt_sym(&arg(args, 4));
            record_prop_read(&eng, &obj, key, base);
            let old = ops::to_number(&get_prop_fast(interp, &obj, key)?);
            let new = old + delta;
            record_prop_write(&eng, ctx, &obj, key, base, inc_sym, None);
            set_prop_fast(interp, &obj, key, Value::Num(new))?;
            Ok(Value::Num(if prefix { new } else { old }))
        });
    }
    {
        let eng = engine.clone();
        let i = idx(hooks::MCALL);
        let mutating = mutating_syms.clone();
        interp.register_native(hooks::MCALL, move |interp, ctx, args| {
            interp.clock.tick(8);
            eng.borrow_mut().tally.bump(i);
            let obj = arg(args, 0);
            let key = sym_of_key(&arg(args, 1));
            let base = opt_sym(&arg(args, 2));
            let call_args = if args.len() > 3 { &args[3..] } else { &[][..] };
            if let Value::Object(o) = &obj {
                let mut e = eng.borrow_mut();
                let stamp = e.current_stamp_id();
                e.push_event(AccessEvent {
                    kind: AccessKind::PropRead,
                    target: o.id(),
                    binding: 0,
                    binding_stamp: 0,
                    key,
                    base,
                    op: Sym::NONE,
                    stamp,
                });
                // Array-mutating methods are element writes in disguise:
                // `results.push(x)` inside a loop is an output dependence on
                // the shared array.
                if o.is_array() && mutating.contains(&key) {
                    e.push_event(AccessEvent {
                        kind: AccessKind::PropWrite,
                        target: o.id(),
                        binding: 0,
                        binding_stamp: 0,
                        key: elements_sym,
                        base,
                        op: push_sym,
                        stamp,
                    });
                }
            }
            let f = get_prop_fast(interp, &obj, key)?;
            interp.call_value(&f, obj, call_args, ctx.caller_scope.clone())
        });
    }

    engine
}

/// Array methods that mutate the receiver's elements.
const MUTATING_ARRAY_METHODS: &[&str] = &[
    "push", "pop", "shift", "unshift", "splice", "sort", "reverse",
];

/// `obj[key]` through the interpreter, with an allocation-free fast path
/// for inline-numeric keys on untagged arrays (tagged objects must go
/// through [`Interp::get_property`] so the DOM monitor sees the access).
fn get_prop_fast(interp: &mut Interp, obj: &Value, key: Sym) -> JsResult {
    if let (Value::Object(o), Some(i)) = (obj, key.as_index()) {
        if o.tag().is_none() && o.is_array() {
            return Ok(o.array_get(i as usize).unwrap_or(Value::Undefined));
        }
    }
    interp.get_property_sym(obj, key)
}

/// `obj[key] = value` counterpart of [`get_prop_fast`].
fn set_prop_fast(interp: &mut Interp, obj: &Value, key: Sym, value: Value) -> JsResult<()> {
    if let (Value::Object(o), Some(i)) = (obj, key.as_index()) {
        if o.tag().is_none() && o.is_array() {
            o.array_set(i as usize, value);
            return Ok(());
        }
    }
    interp.set_property_sym(obj, key, value)
}

/// Record the read half of a compound property access.
fn record_prop_read(eng: &EngineRef, obj: &Value, key: Sym, base: Sym) {
    let Value::Object(o) = obj else { return };
    let mut e = eng.borrow_mut();
    let stamp = e.current_stamp_id();
    e.push_event(AccessEvent {
        kind: AccessKind::PropReadCompound,
        target: o.id(),
        binding: 0,
        binding_stamp: 0,
        key,
        base,
        op: Sym::NONE,
        stamp,
    });
}

/// Shared write-recording path for SETPROP/SETPROP2/UPDATE_PROP: resolve
/// the base variable's binding (its declaration stamp drives the
/// effective-stamp refinement) and record the write event.
fn record_prop_write(
    eng: &EngineRef,
    ctx: &CallCtx,
    obj: &Value,
    key: Sym,
    base: Sym,
    op: Sym,
    observe: Option<&Value>,
) {
    let Value::Object(o) = obj else { return };
    let (binding, binding_stamp) = if base.is_some() {
        binding_of(ctx, base)
    } else {
        (0, 0)
    };
    let mut e = eng.borrow_mut();
    let stamp = e.current_stamp_id();
    e.push_event(AccessEvent {
        kind: AccessKind::PropWrite,
        target: o.id(),
        binding,
        binding_stamp,
        key,
        base,
        op,
        stamp,
    });
    // `__ceres_setprop` threads the assigned value through for type
    // observation; folding it here keeps the hook to one engine borrow.
    if let Some(value) = observe {
        let subject = e.subject_sym(base, key);
        e.observe_type(subject, 0, value);
    }
}

/// Id and declaration stamp of the binding `name` resolves to from the
/// caller's scope; `(0, 0)` when it resolves to none.
fn binding_of(ctx: &CallCtx, name: Sym) -> (u64, u32) {
    ctx.caller_scope
        .as_ref()
        .and_then(|s| s.lookup_sym(name))
        .map(|b| {
            let b = b.borrow();
            (b.id, b.stamp)
        })
        .unwrap_or((0, 0))
}

/// Evaluate `old op value` for compound property assignment.
fn apply_binop(op: &str, old: &Value, value: &Value) -> Value {
    use ceres_interp::ops::*;
    match op {
        "+" => js_add(old, value),
        "-" => Value::Num(to_number(old) - to_number(value)),
        "*" => Value::Num(to_number(old) * to_number(value)),
        "/" => Value::Num(to_number(old) / to_number(value)),
        "%" => Value::Num(to_number(old) % to_number(value)),
        "<<" => Value::Num((to_int32(old) << (to_uint32(value) & 31)) as f64),
        ">>" => Value::Num((to_int32(old) >> (to_uint32(value) & 31)) as f64),
        ">>>" => Value::Num((to_uint32(old) >> (to_uint32(value) & 31)) as f64),
        "&" => Value::Num((to_int32(old) & to_int32(value)) as f64),
        "|" => Value::Num((to_int32(old) | to_int32(value)) as f64),
        "^" => Value::Num((to_int32(old) ^ to_int32(value)) as f64),
        _ => js_add(old, value),
    }
}

/// Run `source` under `mode` on a fresh interpreter with DOM installed;
/// convenience used by tests, examples, and the pipeline.
pub fn run_instrumented(source: &str, mode: Mode, seed: u64) -> JsResult<(Interp, EngineRef)> {
    let (instrumented, loops) = ceres_instrument::instrument_source(source, mode)
        .map_err(|e| ceres_interp::Control::Fatal(format!("instrumentation parse error: {e}")))?;
    let mut interp = Interp::new(seed);
    ceres_dom::install_dom(&mut interp);
    let engine = attach_engine(&mut interp, mode, loops);
    interp.eval_source(&instrumented)?;
    Ok((interp, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::render;

    fn run(src: &str, mode: Mode) -> (Interp, EngineRef) {
        run_instrumented(src, mode, 42).unwrap_or_else(|e| panic!("run failed: {e:?}"))
    }

    #[test]
    fn lightweight_counts_loop_time() {
        let (interp, eng) = run(
            "var s = 0;\n\
             for (var i = 0; i < 1000; i++) { s += i; }\n\
             var t = 0;\n\
             for (var j = 0; j < 10; j++) { t += j; }",
            Mode::Lightweight,
        );
        let eng = eng.borrow();
        assert!(eng.lw_loop_ticks > 0);
        assert!(eng.lw_loop_ticks < interp.clock.now_ticks());
        // The 1000-iteration loop dominates: loop time is most of total.
        assert!(eng.lw_loop_ticks as f64 > 0.8 * interp.clock.now_ticks() as f64);
    }

    #[test]
    fn loop_profile_counts_instances_and_trips() {
        let (_interp, eng) = run(
            "function work(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < n; i++) { s += i; }\n\
               return s;\n\
             }\n\
             for (var r = 0; r < 5; r++) { work(10); }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        // Loop 1 = the inner for (source order), loop 2 = the outer for.
        let inner = &eng.records[&LoopId(1)];
        let outer = &eng.records[&LoopId(2)];
        assert_eq!(inner.instances, 5);
        assert_eq!(inner.trips.mean(), 10.0);
        assert_eq!(inner.trips.total(), 50.0);
        assert_eq!(outer.instances, 1);
        assert_eq!(outer.trips.mean(), 5.0);
        // Outer nest time includes inner time.
        assert!(outer.time_ticks.total() >= inner.time_ticks.total());
        // Nest attribution: inner ran inside outer.
        assert_eq!(eng.nest_root[&LoopId(1)], LoopId(2));
        assert_eq!(eng.nest_root[&LoopId(2)], LoopId(2));
    }

    #[test]
    fn trip_variance_via_welford() {
        let (_interp, eng) = run(
            "for (var r = 1; r <= 4; r++) {\n\
               for (var i = 0; i < r * 10; i++) { }\n\
             }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        let inner = &eng.records[&LoopId(2)];
        assert_eq!(inner.instances, 4);
        assert_eq!(inner.trips.mean(), 25.0); // (10+20+30+40)/4
        assert!((inner.trips.stddev() - 125.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn break_and_return_still_record_exits() {
        let (_interp, eng) = run(
            "function f() {\n\
               for (var i = 0; i < 100; i++) {\n\
                 if (i === 3) { return i; }\n\
               }\n\
             }\n\
             f();\n\
             for (var j = 0; j < 100; j++) { if (j === 5) { break; } }",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        assert_eq!(eng.open_loops(), 0, "stack must unwind cleanly");
        let f_loop = &eng.records[&LoopId(1)];
        let b_loop = &eng.records[&LoopId(2)];
        assert_eq!(f_loop.instances, 1);
        assert_eq!(f_loop.trips.mean(), 4.0); // iterations 1..=4 entered
        assert_eq!(b_loop.instances, 1);
        assert_eq!(b_loop.trips.mean(), 6.0);
    }

    #[test]
    fn recursion_detected_and_tainted() {
        let (_interp, eng) = run(
            "function rec(n) {\n\
               var s = 0;\n\
               for (var i = 0; i < 2; i++) {\n\
                 if (n > 0) { s += rec(n - 1); }\n\
               }\n\
               return s;\n\
             }\n\
             rec(3);",
            Mode::LoopProfile,
        );
        let eng = eng.borrow();
        assert!(eng.records[&LoopId(1)].recursion_tainted);
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::Recursion));
    }

    #[test]
    fn fig6_nbody_warnings() {
        // The paper's Fig. 6 program, with a concrete setup and 3 steps.
        let src = r#"
var dT = 0.01;
var bodies = [];
var setup;
for (setup = 0; setup < 4; setup++) {
  bodies.push({ x: setup, y: 0, vX: 0, vY: 0, fX: 1, fY: 1, m: 1 });
}
function Particle() { this.x = 0; this.y = 0; this.m = 0; }
function computeForces() { }
function step() {
  computeForces();
  var com = new Particle();
  for (var i = 0; i < bodies.length; i++) {
    var p = bodies[i];
    p.vX += p.fX / p.m * dT;
    p.vY += p.fY / p.m * dT;
    p.x += p.vX * dT;
    p.y += p.vY * dT;
    com.m = com.m + p.m;
    com.x = (com.x * com.m + p.x * p.m) / (com.m + p.m);
    com.y = (com.y * com.m + p.y * p.m) / (com.m + p.m);
  }
  return com;
}
var steps = 0;
while (steps < 3) {
  var com = step();
  steps++;
}
"#;
        let (_interp, eng) = run(src, Mode::Dependence);
        let eng = eng.borrow();
        let loops = &eng.loops;

        // Loop ids in source order: 1 = setup for, 2 = the step() for,
        // 3 = the while.
        let find = |kind: WarningKind, subject: &str| {
            eng.warnings
                .iter()
                .find(|w| w.kind == kind && w.subject == subject)
                .unwrap_or_else(|| {
                    panic!(
                        "missing {kind:?} for {subject}; have: {:?}",
                        eng.warnings
                            .iter()
                            .map(|w| format!("{:?} {}", w.kind, w.subject))
                            .collect::<Vec<_>>()
                    )
                })
        };

        // (a) write to variable p: while ok ok -> for ok dependence.
        let wp = find(WarningKind::VarWrite, "p");
        let rendered = render(&wp.characterization, loops);
        assert!(
            rendered.starts_with("while(") && rendered.contains("ok ok -> for("),
            "unexpected characterization: {rendered}"
        );
        assert!(rendered.ends_with("ok dependence"), "{rendered}");

        // (b) writes to properties of p and com share the same shape.
        for subject in ["p.vX", "p.vY", "p.x", "p.y", "com.m", "com.x", "com.y"] {
            let w = find(WarningKind::SharedPropWrite, subject);
            let r = render(&w.characterization, loops);
            assert!(
                r.contains("ok ok -> for(") && r.ends_with("ok dependence"),
                "{subject}: {r}"
            );
        }

        // (c) flow reads of com.x / com.y / com.m.
        for subject in ["com.m", "com.x", "com.y"] {
            let w = find(WarningKind::FlowRead, subject);
            let r = render(&w.characterization, loops);
            assert!(
                r.contains("ok ok -> for(") && r.ends_with("ok dependence"),
                "flow {subject}: {r}"
            );
        }

        // The induction variable i is recorded as a var write with ++
        // (the `var i = 0` init is a separate "init" warning).
        assert!(eng.warnings.iter().any(|w| w.kind == WarningKind::VarWrite
            && w.subject == "i"
            && w.op.as_deref() == Some("++")));
    }

    #[test]
    fn private_iteration_locals_produce_no_warnings() {
        let (_interp, eng) = run(
            "function f(v) { var t = { s: 0 }; t.s = v * 2; return t.s; }\n\
             var out = 0;\n\
             for (var i = 0; i < 10; i++) { out += f(i); }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        // t is created and written entirely within one iteration: no
        // SharedPropWrite warning for t.s.
        assert!(
            !eng.warnings
                .iter()
                .any(|w| w.kind == WarningKind::SharedPropWrite && w.subject == "t.s"),
            "t.s wrongly flagged: {:?}",
            eng.warnings
        );
        // out is a reduction accumulator: flagged with op "+=".
        let w = eng
            .warnings
            .iter()
            .find(|w| w.kind == WarningKind::VarWrite && w.subject == "out")
            .expect("out flagged");
        assert_eq!(w.op.as_deref(), Some("+="));
    }

    #[test]
    fn disjoint_index_writes_have_high_disjointness() {
        let (_interp, eng) = run(
            "var data = new Float32Array(64);\n\
             for (var i = 0; i < 64; i++) { data[i] = i * 2; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let stats = eng.subject_stats_for("data[*]").expect("stats for data[*]");
        assert_eq!(stats.writes, 64);
        // one window, 64 writes to 64 distinct locations
        assert!(
            stats.disjointness() > 0.9,
            "disjointness {}",
            stats.disjointness()
        );
        // Conflicting writes to one field: low disjointness.
        let (_interp, eng) = run(
            "var acc = { v: 0 };\n\
             for (var i = 0; i < 64; i++) { acc.v = acc.v + i; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let stats = eng.subject_stats_for("acc.v").expect("stats for acc.v");
        assert!(
            stats.disjointness() < 0.1,
            "disjointness {}",
            stats.disjointness()
        );
        // And the read side is a flow dependence.
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::FlowRead && w.subject == "acc.v"));
    }

    #[test]
    fn array_push_in_loop_is_output_dependence() {
        let (_interp, eng) = run(
            "var results = [];\n\
             for (var i = 0; i < 8; i++) { results.push(i * i); }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        assert!(
            eng.warnings.iter().any(
                |w| w.kind == WarningKind::SharedPropWrite && w.subject == "results.<elements>"
            ),
            "push not flagged: {:?}",
            eng.warnings
                .iter()
                .map(|w| (w.kind, w.subject.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn focus_limits_recording_to_one_nest() {
        let src = "var a = { v: 0 };\n\
                   var b = { v: 0 };\n\
                   for (var i = 0; i < 4; i++) { a.v += i; }\n\
                   for (var j = 0; j < 4; j++) { b.v += j; }";
        // Focused on loop 2 (the second for): only b.v warnings appear.
        let (instrumented, loops) =
            ceres_instrument::instrument_source(src, Mode::Dependence).unwrap();
        let mut interp = Interp::new(42);
        ceres_dom::install_dom(&mut interp);
        let engine = attach_engine(&mut interp, Mode::Dependence, loops);
        engine.borrow_mut().focus = Some(LoopId(2));
        interp.eval_source(&instrumented).unwrap();
        let eng = engine.borrow();
        assert!(eng.warnings.iter().any(|w| w.subject == "b.v"));
        assert!(!eng.warnings.iter().any(|w| w.subject == "a.v"));
    }

    #[test]
    fn dom_accesses_attributed_to_open_loops() {
        let (_interp, eng) = run(
            "var el = document.getElementById(\"out\");\n\
             for (var i = 0; i < 5; i++) { el.innerHTML = \"i\" + i; }\n\
             for (var j = 0; j < 5; j++) { var x = j * 2; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        assert!(eng
            .dom_by_loop
            .get(&LoopId(1))
            .map(|t| t.contains("dom"))
            .unwrap_or(false));
        assert!(!eng.dom_by_loop.contains_key(&LoopId(2)));
    }

    #[test]
    fn warnings_deduplicate_with_counts() {
        let (_interp, eng) = run(
            "var g = 0;\n\
             for (var i = 0; i < 50; i++) { g = i; }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        let w: Vec<_> = eng
            .warnings
            .iter()
            .filter(|w| w.kind == WarningKind::VarWrite && w.subject == "g")
            .collect();
        assert_eq!(w.len(), 1, "deduplicated");
        assert_eq!(w[0].count, 50);
    }

    #[test]
    fn long_iterations_keep_per_access_stamps_and_counts() {
        // One iteration performs hundreds of accesses; each must keep its
        // own access-time stamp and every one must count toward dedup.
        let n = 768;
        let src = format!(
            "var g = 0;\n\
             var o = {{ v: 0 }};\n\
             for (var i = 0; i < 2; i++) {{\n\
               var j = 0;\n\
               while (j < {n}) {{ g = j; o.v = j; j++; }}\n\
             }}"
        );
        let (_interp, eng) = run(&src, Mode::Dependence);
        let eng = eng.borrow();
        let g = eng
            .warnings
            .iter()
            .find(|w| w.kind == WarningKind::VarWrite && w.subject == "g")
            .expect("g flagged");
        assert_eq!(g.count, 2 * n as u64);
        assert!(eng
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::SharedPropWrite && w.subject == "o.v"));
    }

    /// Every warning as `kind subject [op] characterization xcount`.
    fn rendered_warnings(eng: &Engine) -> Vec<String> {
        eng.warnings
            .iter()
            .map(|w| {
                format!(
                    "{:?} {} {:?} {} x{}",
                    w.kind,
                    w.subject,
                    w.op,
                    render(&w.characterization, &eng.loops),
                    w.count
                )
            })
            .collect()
    }

    #[test]
    fn implicit_global_bases_characterize_through_the_object_stamp() {
        // `o` and `q` are implicit globals: no `var`, so `__ceres_declvars`
        // never stamps their bindings. Their property writes must fall
        // back to the object's creation stamp: `q`'s object predates the
        // loops, `o`'s is made fresh in each outer iteration.
        let (_interp, eng) = run(
            "var i, j;\n\
             q = { n: 0 };\n\
             for (i = 0; i < 3; i++) {\n\
               o = { v: 0 };\n\
               for (j = 0; j < 4; j++) { o.v = j; q.n = j; }\n\
             }",
            Mode::Dependence,
        );
        let eng = eng.borrow();
        assert_eq!(
            rendered_warnings(&eng),
            [
                r#"VarWrite i Some("init") for(line 3) dependence dependence x1"#,
                r#"VarWrite o Some("=") for(line 3) dependence dependence x3"#,
                r#"VarWrite j Some("init") for(line 3) dependence dependence -> for(line 5) dependence dependence x3"#,
                r#"SharedPropWrite o.v Some("=") for(line 3) ok ok -> for(line 5) ok dependence x12"#,
                r#"SharedPropWrite q.n Some("=") for(line 3) dependence dependence -> for(line 5) dependence dependence x12"#,
                r#"VarWrite j Some("++") for(line 3) dependence dependence -> for(line 5) dependence dependence x12"#,
                "WawWrite o.v None for(line 3) ok ok -> for(line 5) ok dependence x9",
                "WawWrite q.n None for(line 3) ok ok -> for(line 5) ok dependence x9",
                r#"VarWrite i Some("++") for(line 3) dependence dependence x3"#,
                "WawWrite q.n None for(line 3) ok dependence -> for(line 5) dependence dependence x2",
            ],
            "implicit-global warnings moved"
        );
    }

    #[test]
    fn host_global_bases_characterize_through_the_object_stamp() {
        // `host` is declared by the embedder, not by the program, so its
        // binding is never stamped and its object never wrapped.
        let src = "var i;\n\
                   var local = { k: 0 };\n\
                   for (i = 0; i < 5; i++) { host.n = i; host.m += i; local.k = host.n; }";
        let (instrumented, loops) =
            ceres_instrument::instrument_source(src, Mode::Dependence).unwrap();
        let mut interp = Interp::new(42);
        ceres_dom::install_dom(&mut interp);
        let engine = attach_engine(&mut interp, Mode::Dependence, loops);
        let host = ceres_interp::value::new_object();
        host.set_prop("n", Value::Num(0.0));
        host.set_prop("m", Value::Num(0.0));
        interp.register_global("host", Value::Object(host));
        interp.eval_source(&instrumented).unwrap();
        let eng = engine.borrow();
        assert_eq!(
            rendered_warnings(&eng),
            [
                r#"VarWrite i Some("init") for(line 3) dependence dependence x1"#,
                r#"SharedPropWrite host.n Some("=") for(line 3) dependence dependence x5"#,
                r#"SharedPropWrite host.m Some("+") for(line 3) dependence dependence x5"#,
                r#"SharedPropWrite local.k Some("=") for(line 3) dependence dependence x5"#,
                r#"VarWrite i Some("++") for(line 3) dependence dependence x5"#,
                "WawWrite host.n None for(line 3) ok dependence x4",
                "FlowRead host.m None for(line 3) ok dependence x4",
                "WawWrite host.m None for(line 3) ok dependence x4",
                "WawWrite local.k None for(line 3) ok dependence x4",
            ],
            "host-global warnings moved"
        );
    }

    #[test]
    fn mcall_preserves_receiver_semantics() {
        let (interp, _eng) = run(
            "var counter = { n: 0, bump: function () { this.n += 1; return this.n; } };\n\
             for (var i = 0; i < 3; i++) { counter.bump(); }\n\
             console.log(counter.n);",
            Mode::Dependence,
        );
        assert_eq!(interp.console, vec!["3"]);
    }

    #[test]
    fn instrumented_programs_compute_same_results() {
        // Semantics preservation: the same program, all four ways.
        let src = "var out = [];\n\
                   function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n\
                   for (var i = 0; i < 8; i++) { out.push(fib(i)); }\n\
                   console.log(out.join(\",\"));";
        let expected = "0,1,1,2,3,5,8,13";
        let mut plain = Interp::new(42);
        plain.eval_source(src).unwrap();
        assert_eq!(plain.console, vec![expected]);
        for mode in [Mode::Lightweight, Mode::LoopProfile, Mode::Dependence] {
            let (interp, _eng) = run(src, mode);
            assert_eq!(interp.console, vec![expected], "{mode:?}");
        }
    }
}

#[cfg(test)]
mod polymorphism_tests {
    use crate::engine::run_instrumented;
    use ceres_instrument::Mode;
    use ceres_interp::intern;

    #[test]
    fn polymorphic_variable_in_loop_is_detected() {
        let (_interp, eng) = run_instrumented(
            "var x = 0;\n\
             var i;\n\
             for (i = 0; i < 6; i++) {\n\
               x = i % 2 === 0 ? i : \"s\" + i;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(
            poly.iter()
                .any(|(s, tys)| s == "x" && tys.contains(&"number") && tys.contains(&"string")),
            "{poly:?}"
        );
    }

    #[test]
    fn monomorphic_and_nullable_variables_are_not_flagged() {
        let (_interp, eng) = run_instrumented(
            "var n = 0;\n\
             var maybe = null;\n\
             var i;\n\
             for (i = 0; i < 6; i++) {\n\
               n = i * 2;\n\
               maybe = i % 2 === 0 ? null : undefined;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(poly.is_empty(), "{poly:?}");
        // n was observed, with exactly one type.
        let n_types: Vec<u32> = eng
            .observed_types
            .iter()
            .filter(|((name, _), _)| &*intern::resolve(*name) == "n")
            .map(|(_, tys)| tys.count_ones())
            .collect();
        assert_eq!(n_types, vec![1]);
    }

    #[test]
    fn every_typeof_name_is_reported_in_sorted_order() {
        // `x` takes all five non-nullish typeof names (plus undefined and
        // null, which carry no type); `y` mixes a number with nullish
        // values only, so it stays monomorphic even though typeof null is
        // "object".
        let (_interp, eng) = run_instrumented(
            "var x = 0;\n\
             var y = 0;\n\
             var vals = [\"s\", {}, 1, function () {}, undefined, true, null];\n\
             var i;\n\
             for (i = 0; i < vals.length; i++) {\n\
               x = vals[i];\n\
               y = i % 3 === 0 ? i : (i % 3 === 1 ? null : undefined);\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        assert_eq!(
            eng.polymorphic_subjects(),
            vec![(
                "x".to_string(),
                vec!["boolean", "function", "number", "object", "string"]
            )]
        );
    }

    #[test]
    fn polymorphic_property_is_detected() {
        let (_interp, eng) = run_instrumented(
            "var o = { v: 0 };\n\
             var i;\n\
             for (i = 0; i < 4; i++) {\n\
               o.v = i === 2 ? function () { return 1; } : i;\n\
             }",
            Mode::Dependence,
            1,
        )
        .unwrap();
        let eng = eng.borrow();
        let poly = eng.polymorphic_subjects();
        assert!(
            poly.iter()
                .any(|(s, tys)| s == "o.v" && tys.contains(&"function")),
            "{poly:?}"
        );
    }

    #[test]
    fn writes_outside_loops_are_not_observed() {
        let (_interp, eng) =
            run_instrumented("var a = 1;\na = \"str\";\na = true;", Mode::Dependence, 1).unwrap();
        let eng = eng.borrow();
        assert!(eng.polymorphic_subjects().is_empty());
    }
}
