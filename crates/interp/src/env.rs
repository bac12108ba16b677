//! Lexical environments with **function scoping**.
//!
//! JavaScript's `var` is function-scoped, not block-scoped; the paper's
//! Fig. 6 finding (all iterations of the `for` loop share the same `p`)
//! depends on this. A [`Scope`] is created per function activation (plus one
//! global scope and a one-binding scope for `catch` parameters); blocks and
//! loop bodies do *not* create scopes.
//!
//! Every [`Binding`] carries a unique id and a stamp word so the dependence
//! analysis can stamp bindings with the loop context at creation time.

use crate::intern::{intern, FxHashMap, Sym};
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// A variable binding.
pub struct Binding {
    /// Unique id, used by the dependence analysis as the location key.
    pub id: u64,
    /// Current value.
    pub value: Value,
    /// Loop-stack stamp id written by an attached analysis engine when the
    /// binding is declared; `0` = never stamped. The interpreter itself
    /// never reads it.
    pub stamp: u32,
}

/// Shared handle to one binding.
pub type BindingRef = Rc<RefCell<Binding>>;

thread_local! {
    static NEXT_BINDING_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(1) };
}

fn next_binding_id() -> u64 {
    NEXT_BINDING_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

/// One lexical scope (function activation, global, or catch clause).
///
/// Variables are keyed by interned [`Sym`] so a chain walk costs one
/// cheap `u32` hash per level instead of re-hashing the name's bytes with
/// SipHash at every ancestor (the pre-intern hot-path cost).
pub struct Scope {
    vars: RefCell<FxHashMap<Sym, BindingRef>>,
    parent: Option<ScopeRef>,
}

/// Shared handle to one scope.
pub type ScopeRef = Rc<Scope>;

impl Scope {
    /// The global scope.
    pub fn global() -> ScopeRef {
        Rc::new(Scope {
            vars: RefCell::new(FxHashMap::default()),
            parent: None,
        })
    }

    /// A child scope (function activation or catch clause).
    pub fn child(parent: &ScopeRef) -> ScopeRef {
        Rc::new(Scope {
            vars: RefCell::new(FxHashMap::default()),
            parent: Some(parent.clone()),
        })
    }

    /// Declare a variable in *this* scope. Redeclaring keeps the existing
    /// binding (ES5 `var x; var x;` semantics) and returns it.
    pub fn declare(&self, name: &str, value: Value) -> BindingRef {
        self.declare_sym(intern(name), value)
    }

    /// [`Scope::declare`] with a pre-interned name.
    pub fn declare_sym(&self, name: Sym, value: Value) -> BindingRef {
        let mut vars = self.vars.borrow_mut();
        if let Some(existing) = vars.get(&name) {
            return existing.clone();
        }
        let binding = Rc::new(RefCell::new(Binding {
            id: next_binding_id(),
            value,
            stamp: 0,
        }));
        vars.insert(name, binding.clone());
        binding
    }

    /// Find the binding for `name`, walking up the scope chain.
    pub fn lookup(&self, name: &str) -> Option<BindingRef> {
        self.lookup_sym(intern(name))
    }

    /// [`Scope::lookup`] with a pre-interned name.
    pub fn lookup_sym(&self, name: Sym) -> Option<BindingRef> {
        if let Some(b) = self.vars.borrow().get(&name) {
            return Some(b.clone());
        }
        match &self.parent {
            Some(p) => p.lookup_sym(name),
            None => None,
        }
    }

    /// Read a variable's value.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.lookup(name).map(|b| b.borrow().value.clone())
    }

    /// [`Scope::get`] with a pre-interned name.
    pub fn get_sym(&self, name: Sym) -> Option<Value> {
        self.lookup_sym(name).map(|b| b.borrow().value.clone())
    }

    /// Assign to an existing binding; returns `false` when `name` is
    /// undeclared anywhere in the chain (the interpreter then creates an
    /// implicit global, as sloppy-mode JS does).
    pub fn set(&self, name: &str, value: Value) -> bool {
        self.set_sym(intern(name), value)
    }

    /// [`Scope::set`] with a pre-interned name.
    pub fn set_sym(&self, name: Sym, value: Value) -> bool {
        match self.lookup_sym(name) {
            Some(b) => {
                b.borrow_mut().value = value;
                true
            }
            None => false,
        }
    }

    /// Is `name` declared in this scope itself (not a parent)?
    pub fn declares_locally(&self, name: &str) -> bool {
        self.vars.borrow().contains_key(&intern(name))
    }

    /// Names of every binding declared in *this* scope (not parents),
    /// sorted lexicographically so callers iterate deterministically
    /// regardless of hash-map order. Used by the parallel backend to walk
    /// the global state for its snapshot/diff/merge cycle.
    pub fn local_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .vars
            .borrow()
            .keys()
            .map(|s| crate::intern::resolve(*s).to_string())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup_through_chain() {
        let global = Scope::global();
        global.declare("g", Value::Num(1.0));
        let inner = Scope::child(&global);
        inner.declare("l", Value::Num(2.0));
        assert!(matches!(inner.get("g"), Some(Value::Num(n)) if n == 1.0));
        assert!(matches!(inner.get("l"), Some(Value::Num(n)) if n == 2.0));
        assert!(global.get("l").is_none());
    }

    #[test]
    fn set_walks_chain() {
        let global = Scope::global();
        global.declare("x", Value::Num(1.0));
        let inner = Scope::child(&global);
        assert!(inner.set("x", Value::Num(5.0)));
        assert!(matches!(global.get("x"), Some(Value::Num(n)) if n == 5.0));
        assert!(!inner.set("nope", Value::Null));
    }

    #[test]
    fn shadowing_creates_distinct_bindings() {
        let global = Scope::global();
        let b1 = global.declare("x", Value::Num(1.0));
        let inner = Scope::child(&global);
        let b2 = inner.declare("x", Value::Num(2.0));
        assert_ne!(b1.borrow().id, b2.borrow().id);
        assert!(matches!(inner.get("x"), Some(Value::Num(n)) if n == 2.0));
        assert!(matches!(global.get("x"), Some(Value::Num(n)) if n == 1.0));
    }

    #[test]
    fn redeclare_keeps_binding_and_value() {
        let s = Scope::global();
        let b1 = s.declare("x", Value::Num(1.0));
        // `var x;` again must not reset the value (ES5 semantics).
        let b2 = s.declare("x", Value::Undefined);
        assert_eq!(b1.borrow().id, b2.borrow().id);
        assert!(matches!(s.get("x"), Some(Value::Num(n)) if n == 1.0));
    }

    #[test]
    fn fresh_activations_get_fresh_binding_ids() {
        // Models calling a function twice: each activation re-declares `p`.
        let global = Scope::global();
        let act1 = Scope::child(&global);
        let id1 = act1.declare("p", Value::Undefined).borrow().id;
        let act2 = Scope::child(&global);
        let id2 = act2.declare("p", Value::Undefined).borrow().id;
        assert_ne!(id1, id2);
    }
}
