//! [`Shared`]: a value that many holders share and that is encoded once.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::{FromJson, JsonError, Reader, ToJson};

/// A reference-counted value with a lazily filled cache of its compact
/// JSON text.
///
/// Cloning is a reference-count increment, and every clone shares the
/// one cache: the first encode through any holder fills it, and later
/// encodes through all of them copy the text instead of walking the
/// value again. [`Shared::make_mut`] is copy-on-write: it copies the
/// value only when another holder still shares it, and the value it
/// lends out starts without text. So a holder never sees another
/// holder's later edits, and a cache always holds the text of the value
/// beside it.
///
/// The cache is derived data. `Shared<T>` writes exactly the bytes of
/// `T`, a decoded one starts uncached, and [`Debug`](fmt::Debug) and
/// [`PartialEq`] go by value.
///
/// ```
/// use icm_json::Shared;
///
/// let original = Shared::new(vec![1, 2]);
/// let mut edited = original.clone();
/// edited.make_mut().push(3);
/// assert_eq!(icm_json::to_string(&original), "[1,2]");
/// assert_eq!(icm_json::to_string(&edited), "[1,2,3]");
/// ```
pub struct Shared<T> {
    inner: Arc<Cached<T>>,
}

struct Cached<T> {
    value: T,
    text: OnceLock<Box<str>>,
}

impl<T: Clone> Clone for Cached<T> {
    /// Copies the value alone: the copy is about to change.
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

impl<T> Cached<T> {
    fn new(value: T) -> Self {
        Self {
            value,
            text: OnceLock::new(),
        }
    }
}

impl<T> Shared<T> {
    /// Wraps a value, with no cached text.
    pub fn new(value: T) -> Self {
        Self {
            inner: Arc::new(Cached::new(value)),
        }
    }
}

impl<T: Clone> Shared<T> {
    /// Lends the value out for editing, copying it first if another
    /// holder shares it, and drops its cached text.
    pub fn make_mut(&mut self) -> &mut T {
        let cached = Arc::make_mut(&mut self.inner);
        cached.text.take();
        &mut cached.value
    }

    /// The value, copied only if another holder shares it.
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.inner).map_or_else(|shared| shared.value.clone(), |own| own.value)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner.value == other.inner.value
    }
}

impl<T: ToJson> ToJson for Shared<T> {
    /// Writes the cached text, encoding the value into `out` and
    /// caching that text on first use.
    fn write_json(&self, out: &mut String) {
        if let Some(text) = self.inner.text.get() {
            out.push_str(text);
            return;
        }
        let start = out.len();
        self.inner.value.write_json(out);
        // Another thread may have filled the cache meanwhile, with the
        // same text: either copy serves.
        let _ = self.inner.text.set(out[start..].into());
    }
}

impl<T: FromJson> FromJson for Shared<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        T::read_json(r).map(Self::new)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        tick: u64,
        note: String,
    }
    crate::impl_json!(struct Entry { tick, note });

    fn entry(tick: u64) -> Entry {
        Entry {
            tick,
            note: format!("n{tick}"),
        }
    }

    thread_local! {
        static ENCODES: Cell<u64> = const { Cell::new(0) };
    }

    /// A value whose every encode is counted (per test thread).
    #[derive(Debug, Clone, PartialEq)]
    struct Counted(u64);

    impl ToJson for Counted {
        fn write_json(&self, out: &mut String) {
            ENCODES.with(|n| n.set(n.get() + 1));
            self.0.write_json(out);
        }
    }

    impl FromJson for Counted {
        fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
            u64::read_json(r).map(Self)
        }
    }

    fn encodes() -> u64 {
        ENCODES.with(Cell::get)
    }

    #[test]
    fn writes_the_bytes_of_its_value() {
        for value in [entry(0), entry(7), entry(1 << 40)] {
            let shared = Shared::new(value.clone());
            let plain = crate::to_string(&value);
            assert_eq!(crate::to_string(&shared), plain, "first encode");
            assert_eq!(crate::to_string(&shared), plain, "cached encode");
            let mut out = String::from("[1,");
            shared.write_json(&mut out);
            assert_eq!(out, format!("[1,{plain}"), "appends after earlier text");
        }
    }

    #[test]
    fn an_encode_through_a_clone_fills_the_original_cache() {
        let original = Shared::new(Counted(3));
        let clone = original.clone();
        let before = encodes();
        assert_eq!(crate::to_string(&clone), "3");
        assert_eq!(encodes(), before + 1);
        assert_eq!(crate::to_string(&original), "3");
        assert_eq!(crate::to_string(&clone), "3");
        assert_eq!(encodes(), before + 1, "every holder reads the one cache");
    }

    #[test]
    fn make_mut_leaves_other_holders_alone() {
        let original = Shared::new(entry(1));
        let text = crate::to_string(&original);
        let mut edited = original.clone();
        edited.make_mut().note = "edited".into();
        assert!(
            !Arc::ptr_eq(&original.inner, &edited.inner),
            "the edit copied"
        );
        assert_eq!(*original, entry(1));
        assert_eq!(crate::to_string(&original), text);
        assert_eq!(
            crate::to_string(&edited),
            crate::to_string(&Entry {
                tick: 1,
                note: "edited".into()
            })
        );
    }

    #[test]
    fn make_mut_on_a_sole_holder_edits_in_place_and_drops_the_text() {
        let mut counted = Shared::new(Counted(1));
        let before = encodes();
        assert_eq!(crate::to_string(&counted), "1");
        counted.make_mut().0 = 2;
        assert_eq!(crate::to_string(&counted), "2");
        assert_eq!(crate::to_string(&counted), "2");
        assert_eq!(encodes(), before + 2, "one encode per value");
        assert_eq!(counted.into_inner(), Counted(2));
    }

    #[test]
    fn a_decoded_value_starts_uncached_and_encodes_from_its_fields() {
        let text = crate::to_string(&Shared::new(Counted(9)));
        let back: Shared<Counted> = crate::from_str(&text).expect("decodes");
        assert_eq!(*back, Counted(9));
        let before = encodes();
        assert_eq!(crate::to_string(&back), text);
        assert_eq!(crate::to_string(&back), text);
        assert_eq!(encodes(), before + 1, "the first encode walks the fields");
    }

    #[test]
    fn equality_and_debug_go_by_value() {
        let a = Shared::new(entry(2));
        let b = Shared::new(entry(2));
        assert_eq!(a, b);
        assert_ne!(a, Shared::new(entry(3)));
        assert_eq!(format!("{a:?}"), format!("{:?}", entry(2)));
        let nan = Shared::new(f64::NAN);
        assert_ne!(nan, nan.clone(), "no identity shortcut");
    }
}
