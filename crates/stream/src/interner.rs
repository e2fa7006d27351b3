//! Event-type registry: interns type names to dense `u32` ids.
//!
//! Every event in the system carries an [`EventType`]
//! id. Dense ids let indicator vectors be plain `Vec<bool>` indexed by type,
//! which is what the DP mechanisms iterate over per window.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::event::EventType;

/// Thread-safe interner mapping event-type names to dense ids.
///
/// Cloning a `TypeRegistry` is cheap and shares the underlying table, so a
/// registry can be handed to generators, engines and mechanisms alike.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    inner: Arc<RwLock<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl TypeRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a registry pre-populated with `names` in order.
    pub fn with_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let reg = Self::new();
        for n in names {
            reg.intern(&n.into());
        }
        reg
    }

    /// Snapshot read access (poisoning folded away: the interner's state
    /// is always internally consistent, a panicked writer cannot corrupt it).
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Intern `name`, returning its id (existing or fresh).
    pub fn intern(&self, name: &str) -> EventType {
        if let Some(&id) = self.read().ids.get(name) {
            return EventType(id);
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        // Re-check under the write lock: another thread may have interned it.
        if let Some(&id) = inner.ids.get(name) {
            return EventType(id);
        }
        let id = inner.names.len() as u32;
        inner.names.push(name.to_owned());
        inner.ids.insert(name.to_owned(), id);
        EventType(id)
    }

    /// Look up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<EventType> {
        self.read().ids.get(name).copied().map(EventType)
    }

    /// Resolve an id back to its name.
    pub fn name(&self, ty: EventType) -> Option<String> {
        self.read().names.get(ty.0 as usize).cloned()
    }

    /// Number of distinct types registered so far.
    pub fn len(&self) -> usize {
        self.read().names.len()
    }

    /// True if no types have been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `ty` is a valid id in this registry.
    pub fn contains(&self, ty: EventType) -> bool {
        (ty.0 as usize) < self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let reg = TypeRegistry::new();
        let a1 = reg.intern("gps.in_cell.4");
        let a2 = reg.intern("gps.in_cell.4");
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let reg = TypeRegistry::with_names(["a", "b", "c"]);
        assert_eq!(reg.get("a"), Some(EventType(0)));
        assert_eq!(reg.get("b"), Some(EventType(1)));
        assert_eq!(reg.get("c"), Some(EventType(2)));
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn name_roundtrip() {
        let reg = TypeRegistry::new();
        let ty = reg.intern("door.open");
        assert_eq!(reg.name(ty).as_deref(), Some("door.open"));
        assert_eq!(reg.name(EventType(99)), None);
    }

    #[test]
    fn get_does_not_insert() {
        let reg = TypeRegistry::new();
        assert_eq!(reg.get("missing"), None);
        assert!(reg.is_empty());
    }

    #[test]
    fn contains_checks_bounds() {
        let reg = TypeRegistry::with_names(["x"]);
        assert!(reg.contains(EventType(0)));
        assert!(!reg.contains(EventType(1)));
    }

    #[test]
    fn concurrent_interning_yields_consistent_ids() {
        let reg = TypeRegistry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| reg.intern(&format!("type-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<EventType>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "all threads must agree on ids");
        }
        assert_eq!(reg.len(), 100);
    }
}
