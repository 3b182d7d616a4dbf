//! The `Ftl` trait: the host-facing block interface of the FTL.

use crate::Result;
use bytes::Bytes;
use insider_nand::{Lba, SimTime};

/// Host-facing block interface of a flash translation layer: three extent
/// operations and their one-page wrappers, nothing else.
///
/// [`InsiderFtl`](crate::InsiderFtl), under either retention value, is the
/// one implementor; everything it reports beyond data (statistics, latency
/// snapshots, wear, the GC victim log, power cuts) is an inherent method of
/// it. The monitored device built on it has its own inherent extent
/// methods, which feed the detector before the FTL.
///
/// An implementor supplies the three extent operations — one bounds check
/// and one mapping-table pass per request; a write is one grouped NAND
/// submit, a read one NAND read per mapped page in the same pass.
/// [`read`](Ftl::read), [`write`](Ftl::write) and [`trim`](Ftl::trim) are
/// provided one-page wrappers over them, so a page written through either
/// spelling takes the same path and leaves the same statistics.
///
/// Each operation carries the simulated time `now`, which a drive with a
/// protection window uses to stamp backup entries and retire expired ones.
/// `now` must never decrease from one operation to the next;
/// [`InsiderFtl`](crate::InsiderFtl) stamps an earlier one with the stamp
/// of its newest backup entry.
pub trait Ftl {
    /// Reads `len` consecutive logical pages starting at `lba`, in order;
    /// unmapped pages yield `None`. A zero-length extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if any page of the extent is out of range or a NAND read fails.
    fn read_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<Vec<Option<Bytes>>>;

    /// Writes `data.len()` consecutive logical pages starting at `lba`,
    /// `data[i]` landing at `lba + i`. An empty extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the extent exceeds the logical range, the drive is
    /// read-only, any payload exceeds the page size, or space is exhausted.
    fn write_extent(&mut self, lba: Lba, data: &[Bytes], now: SimTime) -> Result<()>;

    /// Unmaps `len` consecutive logical pages starting at `lba`. A
    /// zero-length extent is a no-op.
    ///
    /// # Errors
    ///
    /// Fails if the extent exceeds the logical range or the drive is
    /// read-only.
    fn trim_extent(&mut self, lba: Lba, len: u32, now: SimTime) -> Result<()>;

    /// Writes one logical page: [`write_extent`](Ftl::write_extent) with a
    /// one-page extent.
    ///
    /// # Errors
    ///
    /// As [`write_extent`](Ftl::write_extent).
    fn write(&mut self, lba: Lba, data: Bytes, now: SimTime) -> Result<()> {
        self.write_extent(lba, std::slice::from_ref(&data), now)
    }

    /// Reads one logical page, `None` if it is unmapped:
    /// [`read_extent`](Ftl::read_extent) with `len = 1`.
    ///
    /// # Errors
    ///
    /// As [`read_extent`](Ftl::read_extent).
    fn read(&mut self, lba: Lba, now: SimTime) -> Result<Option<Bytes>> {
        self.read_extent(lba, 1, now)
            .map(|mut pages| pages.pop().flatten())
    }

    /// Unmaps one logical page: [`trim_extent`](Ftl::trim_extent) with
    /// `len = 1`.
    ///
    /// # Errors
    ///
    /// As [`trim_extent`](Ftl::trim_extent).
    fn trim(&mut self, lba: Lba, now: SimTime) -> Result<()> {
        self.trim_extent(lba, 1, now)
    }
}
