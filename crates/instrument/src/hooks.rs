//! Names of the host functions the rewriter inserts, and the fixed-size
//! access records the dependence hooks hand to the engine.
//!
//! `ceres-core` registers natives under these names; keeping the constants
//! in one place prevents instrument/engine drift.

use ceres_interp::intern::Sym;

/// Lightweight mode: open-loop counter increment (no arguments).
pub const LW_ENTER: &str = "__ceres_lw_enter";
/// Lightweight mode: open-loop counter decrement (no arguments).
pub const LW_EXIT: &str = "__ceres_lw_exit";

/// Loop-profile/dependence: `(loop_id)` — push a (loop, instance, 0) triple.
pub const LOOP_ENTER: &str = "__ceres_loop_enter";
/// Loop-profile/dependence: `(loop_id)` — increment the iteration in place.
pub const ITER: &str = "__ceres_iter";
/// Loop-profile/dependence: `(loop_id)` — pop the triple, record stats.
pub const LOOP_EXIT: &str = "__ceres_loop_exit";

/// Dependence: `("a", "b", …)` — stamp the named bindings of the *calling*
/// activation with the current loop stack. Inserted at the top of every
/// function body (and of the program) for all hoisted names and parameters.
pub const DECLVARS: &str = "__ceres_declvars";
/// Dependence: `("x", "op")` — record a write to variable `x` (type (a)
/// warning). `op` is the spelling of the write ("=", "+=", "++", "init",
/// "forin"), used by the difficulty classifier to spot induction/reduction
/// patterns.
pub const WRVAR: &str = "__ceres_wrvar";
/// Dependence: `(value) -> value` — stamp a freshly created object (the
/// paper's Proxy wrap).
pub const WRAP: &str = "__ceres_wrap";
/// Dependence: `(obj, key[, baseVar]) -> obj[key]` — recorded property read
/// (type (c)). `baseVar` names the variable the object was reached through,
/// when the base expression is a simple identifier.
pub const GETPROP: &str = "__ceres_getprop";
/// Dependence: `(obj, key, value[, baseVar]) -> value` — recorded property
/// write (type (b)). `baseVar` names the variable the object was reached
/// through, when the base expression is a simple identifier.
pub const SETPROP: &str = "__ceres_setprop";
/// Dependence: `(obj, key, "op", value[, baseVar]) -> result` — compound
/// property assignment (`o.k op= v`): recorded read + write.
pub const SETPROP2: &str = "__ceres_setprop2";
/// Dependence: `(obj, key, delta, isPrefix[, baseVar]) -> old|new` —
/// `o.k++` and friends: recorded read + write.
pub const UPDATE_PROP: &str = "__ceres_update_prop";
/// Dependence: `(obj, key, baseVarOrNull, args…) -> obj[key](args…)` —
/// method call that records the property read and preserves the receiver.
/// The base slot is always present because the arguments are variadic.
pub const MCALL: &str = "__ceres_mcall";

/// All hook names, for tests and for the engine's registration loop.
pub const ALL_HOOKS: &[&str] = &[
    LW_ENTER,
    LW_EXIT,
    LOOP_ENTER,
    ITER,
    LOOP_EXIT,
    DECLVARS,
    WRVAR,
    WRAP,
    GETPROP,
    SETPROP,
    SETPROP2,
    UPDATE_PROP,
    MCALL,
];

/// Number of distinct hooks (`ALL_HOOKS.len()` as a const, so counters can
/// live in a fixed array with no allocation on the hot path).
pub const HOOK_COUNT: usize = 13;

/// Position of `name` in [`ALL_HOOKS`], for pre-computing a [`HookTally`]
/// index once at registration time instead of string-matching per call.
///
/// # Panics
/// Panics on a name that is not a registered hook — that is always an
/// instrument/engine drift bug, never a runtime condition.
pub fn hook_index(name: &str) -> usize {
    ALL_HOOKS
        .iter()
        .position(|h| *h == name)
        .unwrap_or_else(|| panic!("unknown hook `{name}`"))
}

/// Per-hook invocation counts for one run: a fixed array indexed by
/// [`hook_index`], so bumping a counter inside the hot dependence hooks is
/// one add. Read out by name (or iterated) when the run is reduced to
/// metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookTally {
    counts: [u64; HOOK_COUNT],
}

impl Default for HookTally {
    fn default() -> Self {
        HookTally::new()
    }
}

impl HookTally {
    /// A tally with every count at zero.
    pub fn new() -> HookTally {
        HookTally {
            counts: [0; HOOK_COUNT],
        }
    }

    /// Record one invocation of the hook at `index` (from [`hook_index`]).
    #[inline]
    pub fn bump(&mut self, index: usize) {
        self.counts[index] += 1;
    }

    /// Invocations of `name` so far.
    pub fn get(&self, name: &str) -> u64 {
        self.counts[hook_index(name)]
    }

    /// Total invocations across every hook.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(hook name, count)` pairs in [`ALL_HOOKS`] order — a deterministic
    /// iteration order, so merged metrics never depend on hash seeds.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL_HOOKS.iter().zip(self.counts).map(|(h, n)| (*h, n))
    }

    /// Only the hooks that fired, in [`ALL_HOOKS`] order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        self.iter().filter(|(_, n)| *n > 0).collect()
    }
}

// ----------------------------------------------------------------------
// Access records
// ----------------------------------------------------------------------

/// What an [`AccessEvent`] records. Binding stamps are not events: the
/// [`DECLVARS`] hook writes them straight into the binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Stamp a freshly created object ([`WRAP`]).
    ObjStamp,
    /// A write to a named variable ([`WRVAR`]).
    VarWrite,
    /// A property read ([`GETPROP`], and the read half of [`MCALL`]).
    PropRead,
    /// The read half of a compound property assignment ([`SETPROP2`],
    /// [`UPDATE_PROP`]). Checked for flow dependence like [`PropRead`](
    /// AccessKind::PropRead) but not attributed to the enclosing task's
    /// read set — the write half already claims the location.
    PropReadCompound,
    /// A property write ([`SETPROP`] family, mutating method calls).
    PropWrite,
}

/// One recorded access: a fixed-size `Copy` struct keyed by interned
/// [`Sym`]s instead of owned strings, so a dependence hook describes its
/// access to the engine without allocating.
///
/// Absent fields use sentinels rather than `Option` wrappers to keep the
/// struct flat: [`Sym::NONE`] for missing names, `0` for missing ids
/// (binding and object ids start at 1).
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// Which access this records.
    pub kind: AccessKind,
    /// Object id (`PropRead`/`PropWrite`/`ObjStamp`).
    pub target: u64,
    /// `VarWrite`: the written binding's id; `PropWrite`: the binding id
    /// of the base variable (for creation-stamp lookup). `0` = none.
    pub binding: u64,
    /// Stamp-table id the engine wrote into that binding at declaration,
    /// read off the binding by the hook; `0` = never stamped (implicit
    /// and host globals) or no binding.
    pub binding_stamp: u32,
    /// Property key (`Prop*`) or variable name (`VarWrite`).
    pub key: Sym,
    /// Base variable the object was reached through, when the rewriter
    /// could name one ([`Sym::NONE`] otherwise).
    pub base: Sym,
    /// Spelling of the operation (`"="`, `"+="`, `"++"`, `"push"`, …) for
    /// the difficulty classifier; [`Sym::NONE`] for reads.
    pub op: Sym,
    /// Engine stamp-table id of the loop stack at access time.
    pub stamp: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_events_are_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<AccessEvent>();
        // Fixed-size: passed by value on every dependence hook call.
        assert!(std::mem::size_of::<AccessEvent>() <= 64);
    }

    #[test]
    fn hook_count_matches_the_registry() {
        assert_eq!(ALL_HOOKS.len(), HOOK_COUNT);
    }

    #[test]
    fn hook_index_round_trips_every_name() {
        for (i, h) in ALL_HOOKS.iter().enumerate() {
            assert_eq!(hook_index(h), i);
        }
    }

    #[test]
    #[should_panic(expected = "unknown hook")]
    fn hook_index_rejects_unknown_names() {
        hook_index("__ceres_bogus");
    }

    #[test]
    fn tally_counts_by_index_and_reads_by_name() {
        let mut t = HookTally::new();
        let wrvar = hook_index(WRVAR);
        t.bump(wrvar);
        t.bump(wrvar);
        t.bump(hook_index(MCALL));
        assert_eq!(t.get(WRVAR), 2);
        assert_eq!(t.get(MCALL), 1);
        assert_eq!(t.get(LW_ENTER), 0);
        assert_eq!(t.total(), 3);
        assert_eq!(t.nonzero(), vec![(WRVAR, 2), (MCALL, 1)]);
    }

    #[test]
    fn hook_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for h in ALL_HOOKS {
            assert!(h.starts_with("__ceres_"), "{h} must be namespaced");
            assert!(seen.insert(h), "{h} duplicated");
        }
    }
}
