//! MESI coherence state and the sharer directory embedded in the L3.
//!
//! The hierarchy is inclusive (Table I), so the shared L3 can act as the
//! directory: each L3 line tracks which cores' private caches hold the line
//! and whether one of them owns it in Modified state.

/// Classic MESI line states for private-cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Modified: dirty, exclusive to one core.
    Modified,
    /// Exclusive: clean, only copy in private caches.
    Exclusive,
    /// Shared: clean, possibly replicated.
    Shared,
    /// Invalid (not present).
    Invalid,
}

impl Mesi {
    /// Whether a core holding the line in this state may write without a
    /// coherence transaction.
    pub fn can_write_silently(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }
}

/// Per-L3-line directory record: bitmask of cores whose private caches hold
/// the line, plus the Modified owner if any.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Directory {
    sharers: u64,
    owner: Option<u8>,
}

impl Directory {
    /// Most cores a machine can have: the width of the sharer mask.
    pub const MAX_CORES: usize = u64::BITS as usize;

    /// No sharers, no owner.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Marks `core` as holding the line.
    ///
    /// # Panics
    /// Panics if `core >= Directory::MAX_CORES`.
    pub fn add_sharer(&mut self, core: usize) {
        assert!(
            core < Self::MAX_CORES,
            "directory supports up to {} cores",
            Self::MAX_CORES
        );
        self.sharers |= 1 << core;
    }

    /// Removes `core`; clears ownership if it was the owner.
    pub fn remove_sharer(&mut self, core: usize) {
        self.sharers &= !(1 << core);
        if self.owner == Some(core as u8) {
            self.owner = None;
        }
    }

    /// Records that `core` holds the line in Modified state.
    pub fn set_owner(&mut self, core: usize) {
        self.add_sharer(core);
        self.owner = Some(core as u8);
    }

    /// The core owning the line in Modified state, if any.
    pub fn owner(&self) -> Option<usize> {
        self.owner.map(|c| c as usize)
    }

    /// Whether `core` is recorded as a sharer.
    pub fn has_sharer(&self, core: usize) -> bool {
        self.sharers & (1 << core) != 0
    }

    /// Iterates over all sharer core ids, ascending (bit scan: only as many
    /// steps as there are sharers, not one per possible core).
    pub fn sharer_iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.sharers;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(c)
            }
        })
    }

    /// Whether any core other than `core` shares the line.
    pub fn shared_by_others(&self, core: usize) -> bool {
        self.sharers & !(1 << core) != 0
    }

    /// True when no private cache holds the line.
    pub fn is_empty(&self) -> bool {
        self.sharers == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesi_write_permission() {
        assert!(Mesi::Modified.can_write_silently());
        assert!(Mesi::Exclusive.can_write_silently());
        assert!(!Mesi::Shared.can_write_silently());
        assert!(!Mesi::Invalid.can_write_silently());
    }

    #[test]
    fn directory_add_remove_owner() {
        let mut d = Directory::empty();
        d.set_owner(3);
        assert_eq!(d.owner(), Some(3));
        assert!(d.has_sharer(3));
        d.add_sharer(5);
        assert!(d.shared_by_others(3));
        d.remove_sharer(3);
        assert_eq!(d.owner(), None);
        assert!(d.has_sharer(5));
        assert!(!d.is_empty());
        d.remove_sharer(5);
        assert!(d.is_empty());
    }

    #[test]
    fn sharer_iter_lists_all() {
        let mut d = Directory::empty();
        d.add_sharer(0);
        d.add_sharer(7);
        assert_eq!(d.sharer_iter().collect::<Vec<_>>(), vec![0, 7]);
    }
}
