//! Run history that is shared by every snapshot of it and encoded once
//! per change, not once per checkpoint.
//!
//! A [`ManagedRun`](crate::ManagedRun) keeps its detections, actions and
//! provenance in [`Ledger`]s. Every checkpoint captures and serializes
//! the whole history, so a ledger holds its records as
//! [`Shared`] values behind one reference count: a capture shares the
//! list instead of copying it, and the first encode of a record, through
//! any holder, caches its compact JSON text for every later one.
//!
//! The text is derived data. It is never serialized (a ledger writes
//! exactly the bytes of a plain array of its records), a parsed ledger
//! starts with none, and every mutable access to a record drops that
//! record's text. Records change only through [`Ledger::get_mut`]:
//! there is no `DerefMut` and no `iter_mut`. Edits are copy-on-write,
//! so a captured ledger never sees a later push or edit.

use std::ops::Deref;
use std::sync::Arc;

use icm_json::{FromJson, JsonError, Reader, Shared, ToJson};

/// An append-mostly list of shared, encode-once records. Cloning is a
/// reference-count increment.
#[derive(Debug, Clone)]
pub(crate) struct Ledger<T> {
    records: Arc<Vec<Shared<T>>>,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Self {
            records: Arc::default(),
        }
    }
}

impl<T> Ledger<T> {
    /// Appends one record.
    pub(crate) fn push(&mut self, record: T) {
        Arc::make_mut(&mut self.records).push(Shared::new(record));
    }

    /// Moves every record out of `records` onto the end.
    pub(crate) fn append(&mut self, records: &mut Vec<T>) {
        Arc::make_mut(&mut self.records).extend(records.drain(..).map(Shared::new));
    }
}

impl<T: Clone> Ledger<T> {
    /// Lends out record `index` for editing, dropping its cached text.
    ///
    /// # Panics
    ///
    /// When `index` is out of bounds.
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        Arc::make_mut(&mut self.records)[index].make_mut()
    }

    /// The records, copied only where another holder shares them.
    pub(crate) fn into_vec(self) -> Vec<T> {
        Arc::unwrap_or_clone(self.records)
            .into_iter()
            .map(Shared::into_inner)
            .collect()
    }
}

impl<T> Deref for Ledger<T> {
    type Target = [Shared<T>];

    fn deref(&self) -> &[Shared<T>] {
        &self.records
    }
}

impl<T: ToJson> ToJson for Ledger<T> {
    fn write_json(&self, out: &mut String) {
        self.records.write_json(out);
    }
}

impl<T: FromJson> FromJson for Ledger<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Vec::read_json(r).map(|records| Self {
            records: Arc::new(records),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        tick: u64,
        note: String,
    }
    icm_json::impl_json!(struct Entry { tick, note });

    fn entry(tick: u64) -> Entry {
        Entry {
            tick,
            note: format!("n{tick}"),
        }
    }

    fn plain<T: Clone + ToJson>(ledger: &Ledger<T>) -> String {
        icm_json::to_string(&ledger.clone().into_vec())
    }

    #[test]
    fn cached_text_is_spliced_and_edits_drop_it() {
        let mut ledger = Ledger::default();
        ledger.push(entry(1));
        ledger.append(&mut vec![entry(2), entry(3)]);
        let text = plain(&ledger);
        assert_eq!(icm_json::to_string(&ledger), text, "first encode");
        assert_eq!(icm_json::to_string(&ledger), text, "cached encode");

        ledger.get_mut(1).note = "edited".into();
        ledger.push(entry(4));
        let edited = plain(&ledger);
        assert!(edited.contains("edited"));
        assert_eq!(icm_json::to_string(&ledger), edited, "edit drops the text");
        let shared = ledger.clone();
        assert_eq!(icm_json::to_string(&ledger), edited, "re-encoded");
        assert_eq!(icm_json::to_string(&shared), edited, "clone before encode");
    }

    #[test]
    fn parsed_ledgers_carry_no_cache_and_write_plain_arrays() {
        let mut ledger = Ledger::default();
        ledger.append(&mut vec![entry(5), entry(6)]);
        let text = icm_json::to_string(&ledger);
        let back: Ledger<Entry> = icm_json::from_str(&text).expect("parses");
        assert_eq!(back.clone().into_vec(), vec![entry(5), entry(6)]);
        assert_eq!(icm_json::to_string(&back), text);
    }

    static CLONES: AtomicU64 = AtomicU64::new(0);

    /// A record whose every deep copy is counted.
    #[derive(Debug, PartialEq)]
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Self(self.0)
        }
    }

    #[test]
    fn captures_share_records_and_edits_copy_only_the_edited_one() {
        let clones = || CLONES.load(Ordering::Relaxed);
        let mut ledger = Ledger::default();
        ledger.append(&mut (0..100).map(Counted).collect());

        // Capture, drop the copy, then push: the list is unshared again.
        let before = clones();
        drop(ledger.clone());
        ledger.push(Counted(100));
        ledger.get_mut(0).0 += 1000;
        assert_eq!(clones(), before, "pushing after the copy is gone");

        // Push while a capture is held: the list of handles is copied,
        // no record is. An edit then copies the edited record alone.
        let held = ledger.clone();
        ledger.push(Counted(101));
        assert_eq!(clones(), before, "pushing while the copy is held");
        ledger.get_mut(5).0 += 1000;
        assert_eq!(clones(), before + 1, "only the edited record is copied");
        assert_eq!(held.len(), 101);
        assert_eq!(*held[5], Counted(5), "the capture keeps its state");
        assert_eq!(*ledger[5], Counted(1005));
        drop(held);
        assert_eq!(ledger.into_vec().len(), 102);
        assert_eq!(clones(), before + 1, "a sole holder hands its records over");
    }
}
