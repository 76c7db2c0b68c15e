//! Dentry names stored in place.
//!
//! A cached directory entry is keyed by its name. Almost every name a
//! workload uses (PostMark's `s12/f4711`, a sharded client's files)
//! fits in [`INLINE_MAX`] bytes, so [`Name`] keeps those inside the key
//! itself and boxes only longer ones: priming, refreshing and dropping
//! such an entry asks the allocator for nothing.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::num::NonZeroU8;

/// Longest name kept in place.
const INLINE_MAX: usize = 23;

/// A directory-entry name: in place up to [`INLINE_MAX`] bytes, boxed
/// beyond. It borrows as its bytes and compares and orders as they do,
/// which is how `str` orders, so a map keyed by `Name` is probed with
/// `name.as_bytes()` and walks in the order a `String` key did.
pub(crate) enum Name {
    /// The bytes and, as `len + 1`, their length. The length is
    /// nonzero so that `Heap` fits in its unused values and a `Name` is
    /// as large as the `String` it replaces.
    Inline(NonZeroU8, [u8; INLINE_MAX]),
    /// A name longer than [`INLINE_MAX`] bytes.
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Name>() == std::mem::size_of::<String>());

impl Name {
    /// The name `s`, allocating only past [`INLINE_MAX`] bytes.
    pub(crate) fn new(s: &str) -> Name {
        if s.len() > INLINE_MAX {
            return Name::Heap(s.as_bytes().into());
        }
        let mut bytes = [0u8; INLINE_MAX];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name::Inline(NonZeroU8::MIN.saturating_add(s.len() as u8), bytes)
    }

    /// The name's bytes.
    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline(tag, bytes) => &bytes[..usize::from(tag.get() - 1)],
            Name::Heap(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Name {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Names of 0..40 bytes over a four-letter alphabet, so that long
    /// shared prefixes and equal names are common on both sides of the
    /// inline limit.
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0u8..4, 0..40)
            .prop_map(|v| v.into_iter().map(|b| char::from(b'a' + b)).collect())
    }

    #[test]
    fn names_up_to_the_limit_stay_inline() {
        let at = "x".repeat(INLINE_MAX);
        assert!(matches!(Name::new(&at), Name::Inline(..)));
        assert!(matches!(Name::new(&format!("{at}y")), Name::Heap(_)));
        assert!(matches!(Name::new(""), Name::Inline(..)));
        assert_eq!(Name::new("résumé").as_bytes(), "résumé".as_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Order, equality and map lookup by bytes are the text's.
        #[test]
        fn order_and_lookup_are_strs(
            a in text(),
            b in text(),
            keys in prop::collection::vec(text(), 0..24),
        ) {
            let (na, nb) = (Name::new(&a), Name::new(&b));
            prop_assert_eq!(na.as_bytes(), a.as_bytes());
            prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
            prop_assert_eq!(na == nb, a == b);
            let by_name: BTreeMap<Name, usize> =
                keys.iter().enumerate().map(|(i, k)| (Name::new(k), i)).collect();
            let by_str: BTreeMap<&str, usize> =
                keys.iter().enumerate().map(|(i, k)| (k.as_str(), i)).collect();
            let walked: Vec<(&[u8], usize)> =
                by_name.iter().map(|(k, &v)| (k.as_bytes(), v)).collect();
            let expected: Vec<(&[u8], usize)> =
                by_str.iter().map(|(&k, &v)| (k.as_bytes(), v)).collect();
            prop_assert_eq!(walked, expected);
            prop_assert_eq!(by_name.get(a.as_bytes()), by_str.get(a.as_str()));
        }
    }
}
