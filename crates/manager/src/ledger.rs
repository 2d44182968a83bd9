//! Run history that is encoded once per change, not once per checkpoint.
//!
//! A [`ManagedRun`](crate::ManagedRun) keeps its detections, actions and
//! provenance in [`Ledger`]s. Every checkpoint serializes the whole
//! history, so a ledger keeps each record's compact JSON text once it
//! is [sealed](Ledger::seal) and splices that text into later
//! serializations instead of encoding the record again.
//!
//! The text is derived data. It is never serialized (a ledger writes
//! exactly the bytes of a plain array of its records), a parsed ledger
//! starts with none, and every mutable access to a record drops that
//! record's text. Records change only through [`Ledger::get_mut`]:
//! there is no `DerefMut` and no `iter_mut`.

use std::ops::Deref;
use std::sync::Arc;

use icm_json::{FromJson, JsonError, Reader, ToJson};

/// An append-mostly list of records with a per-record cache of their
/// compact JSON text. Cloning shares the cached text.
#[derive(Debug, Clone)]
pub(crate) struct Ledger<T> {
    records: Vec<T>,
    /// `text[i]` is `records[i]`'s compact JSON, if sealed since the
    /// record last changed.
    text: Vec<Option<Arc<str>>>,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Self {
            records: Vec::new(),
            text: Vec::new(),
        }
    }
}

impl<T> Ledger<T> {
    /// Appends one record.
    pub(crate) fn push(&mut self, record: T) {
        self.records.push(record);
        self.text.push(None);
    }

    /// Moves every record out of `records` onto the end.
    pub(crate) fn append(&mut self, records: &mut Vec<T>) {
        self.records.append(records);
        self.text.resize(self.records.len(), None);
    }

    /// Lends out record `index` for editing, dropping its cached text.
    ///
    /// # Panics
    ///
    /// When `index` is out of bounds.
    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        self.text[index] = None;
        &mut self.records[index]
    }

    /// The records, without their cache.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.records
    }
}

impl<T: ToJson> Ledger<T> {
    /// Encodes every record that has no cached text.
    pub(crate) fn seal(&mut self) {
        for (record, text) in self.records.iter().zip(&mut self.text) {
            if text.is_none() {
                *text = Some(icm_json::to_string(record).into());
            }
        }
    }
}

impl<T> Deref for Ledger<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.records
    }
}

impl<T: ToJson> ToJson for Ledger<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, (record, text)) in self.records.iter().zip(&self.text).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match text {
                Some(text) => out.push_str(text),
                None => record.write_json(out),
            }
        }
        out.push(']');
    }
}

impl<T> From<Vec<T>> for Ledger<T> {
    fn from(records: Vec<T>) -> Self {
        let text = vec![None; records.len()];
        Self { records, text }
    }
}

impl<T: FromJson> FromJson for Ledger<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        Vec::read_json(r).map(Self::from)
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn sealed_text_is_spliced_and_edits_drop_it() {
        let mut ledger = Ledger::default();
        ledger.push(entry(1));
        ledger.append(&mut vec![entry(2), entry(3)]);
        let plain = icm_json::to_string(&ledger.to_vec());
        assert_eq!(icm_json::to_string(&ledger), plain, "unsealed");
        ledger.seal();
        assert_eq!(icm_json::to_string(&ledger), plain, "sealed");

        ledger.get_mut(1).note = "edited".into();
        ledger.push(entry(4));
        let edited = icm_json::to_string(&ledger.to_vec());
        assert!(edited.contains("edited"));
        assert_eq!(icm_json::to_string(&ledger), edited, "edit drops the text");
        let shared = ledger.clone();
        ledger.seal();
        assert_eq!(icm_json::to_string(&ledger), edited, "resealed");
        assert_eq!(icm_json::to_string(&shared), edited, "clone before seal");
    }

    #[test]
    fn parsed_ledgers_carry_no_cache_and_write_plain_arrays() {
        let mut ledger = Ledger::default();
        ledger.append(&mut vec![entry(5), entry(6)]);
        ledger.seal();
        let text = icm_json::to_string(&ledger);
        let back: Ledger<Entry> = icm_json::from_str(&text).expect("parses");
        assert!(back.text.iter().all(Option::is_none));
        assert_eq!(back.to_vec(), vec![entry(5), entry(6)]);
        assert_eq!(icm_json::to_string(&back), text);
        assert_eq!(back.into_vec().len(), 2);
    }
}
