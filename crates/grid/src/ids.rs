//! Dense, typed identifiers for grid entities.
//!
//! All arenas in this workspace are indexed by `u32`-backed newtypes so that
//! a g-cell id can never be confused with an edge id or a net id at compile
//! time ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Wraps a raw dense index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw dense index, for arena addressing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }
    };
}

dense_id! {
    /// Identifier of a g-cell in row-major order (`y * width + x`).
    GcellId
}

dense_id! {
    /// Identifier of a g-cell edge.
    ///
    /// Horizontal edges are numbered first (row-major over `(width-1) ×
    /// height` positions), vertical edges follow (row-major over `width ×
    /// (height-1)` positions). See [`crate::GcellGrid`].
    EdgeId
}

dense_id! {
    /// Identifier of a net in the input design.
    NetId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_raw() {
        let id = EdgeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(EdgeId::from(42u32), id);
    }

    #[test]
    fn display_is_nonempty_and_typed() {
        assert_eq!(GcellId::new(7).to_string(), "GcellId#7");
        assert_eq!(NetId::new(0).to_string(), "NetId#0");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(NetId::new(1) < NetId::new(2));
    }
}
