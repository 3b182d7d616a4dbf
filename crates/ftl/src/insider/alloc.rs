//! Page allocation, extent program, read and unmap: the host data path
//! below the extent operations, and the one place a superseded page is
//! invalidated and protected.

use super::InsiderFtl;
use crate::{FtlError, Result};
use bytes::Bytes;
use insider_nand::{Lba, NandError, OobTag, PageState, Pba, Ppa, SimTime};

impl InsiderFtl {
    /// Hands out the next programmable physical page, rotating across one
    /// active block per chip so consecutive pages land on different dies;
    /// a chip whose pool is empty is skipped until GC refills it.
    ///
    /// Used by GC's page-by-page migration only; host writes reserve their
    /// pages through [`allocate_extent`](Self::allocate_extent), which hands
    /// out the same sequence.
    pub(super) fn allocate(&mut self) -> Result<Ppa> {
        let g = *self.config.geometry();
        let chips = self.active.len();
        for attempt in 0..chips {
            let chip = (self.next_chip + attempt) % chips;
            loop {
                if let Some(pba) = self.active[chip] {
                    let block = self.device.block(pba)?;
                    if let Some(offset) = block.write_ptr() {
                        self.next_chip = (chip + 1) % chips;
                        return Ok(pba.page(&g, offset));
                    }
                    self.close_active(chip, pba);
                }
                match self.free[chip].pop_front() {
                    Some(pba) => self.open_block(chip, pba),
                    None => break, // this chip is dry; try the next
                }
            }
        }
        Err(FtlError::NoReclaimableSpace)
    }

    /// Opens a fresh free block as `chip`'s active block.
    fn open_block(&mut self, chip: usize, pba: Pba) {
        let raw = pba.index() as usize;
        self.blocks.free[raw] = false;
        self.free_count -= 1;
        self.blocks.active[raw] = true;
        self.active[chip] = Some(pba);
    }

    /// Closes `chip`'s full active block: it becomes a GC-victim candidate.
    fn close_active(&mut self, chip: usize, pba: Pba) {
        let raw = pba.index();
        self.active[chip] = None;
        self.blocks.active[raw as usize] = false;
        self.blocks.refresh(raw);
    }

    /// Reserves `n` programmable physical pages with the same die-striping
    /// rotation as [`allocate`](Self::allocate), without programming them.
    ///
    /// The device's per-block write pointer only advances when a page is
    /// actually programmed, so a batch reservation must account for pages
    /// handed out earlier in the same extent: `reserved[chip]` counts the
    /// offsets claimed ahead of the active block's write pointer. The
    /// caller programs the reservation in order (one grouped submit), which
    /// preserves NAND's in-order-programming constraint per block.
    ///
    /// A block left reservation-full is closed (its chip opens a fresh
    /// block); if the subsequent batch program aborts mid-extent, the
    /// closed block's unprogrammed tail is stranded until GC erases it —
    /// the price of grouping, only paid on injected faults.
    fn allocate_extent(&mut self, n: usize) -> Result<Vec<Ppa>> {
        let g = *self.config.geometry();
        let ppb = g.pages_per_block();
        let chips = self.active.len();
        let mut reserved = vec![0u32; chips];
        let mut out = Vec::with_capacity(n);
        'pages: for _ in 0..n {
            for attempt in 0..chips {
                let chip = (self.next_chip + attempt) % chips;
                loop {
                    if let Some(pba) = self.active[chip] {
                        let block = self.device.block(pba)?;
                        let base = block.write_ptr().unwrap_or(ppb);
                        let offset = base + reserved[chip];
                        if offset < ppb {
                            reserved[chip] += 1;
                            self.next_chip = (chip + 1) % chips;
                            out.push(pba.page(&g, offset));
                            continue 'pages;
                        }
                        self.close_active(chip, pba);
                        reserved[chip] = 0;
                    }
                    match self.free[chip].pop_front() {
                        Some(pba) => self.open_block(chip, pba),
                        None => break, // this chip is dry; try the next
                    }
                }
            }
            return Err(FtlError::NoReclaimableSpace);
        }
        Ok(out)
    }

    /// Supersedes physical page `ppa`: marks it invalid (a no-op unless it
    /// is valid) and, when `protect` is set, counts it protected, then
    /// re-files its block in the victim index once.
    ///
    /// A protection begins only here, and the caller pushes the matching
    /// backup entry. Doing both counts before the one refresh is what makes
    /// the common protected overwrite cheap: invalid and protected both rise
    /// by one, the block's reclaimable count is unchanged, and the victim
    /// index returns without touching its tree.
    pub(super) fn supersede(&mut self, ppa: Ppa, protect: bool) -> Result<()> {
        let raw = ppa.block(self.config.geometry()).index();
        if self.device.page_state(ppa)? == PageState::Valid {
            self.device.invalidate(ppa)?;
            self.blocks.invalid[raw as usize] += 1;
        }
        if protect {
            self.blocks.protected[raw as usize] += 1;
        }
        self.blocks.refresh(raw);
        Ok(())
    }

    /// Reads `len` consecutive logical pages in one pass, in request order:
    /// each mapped page is one NAND read straight into the result, an
    /// unmapped one is `None`. The FTL stripes consecutive pages across
    /// dies, so the per-page reads of an extent overlap in the scheduler.
    ///
    /// # Errors
    ///
    /// Stops at the first failing NAND read and returns its error; the
    /// pages read before it stay counted in the NAND stats.
    pub(super) fn read_extent_mapped(&mut self, lba: Lba, len: u32) -> Result<Vec<Option<Bytes>>> {
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..u64::from(len) {
            out.push(match self.mapping.get(lba.offset(i)) {
                Some(ppa) => Some(self.device.read(ppa)?),
                None => None,
            });
        }
        Ok(out)
    }

    /// Programs a whole extent starting at `lba` — `data[i]` lands at
    /// `lba + i` — as one batch: the physical pages are reserved across the
    /// dies up front, ONE multi-page NAND submit programs them, and the
    /// forward/reverse mapping updates, superseded-page invalidations and
    /// (when the drive [retains](Self::retains)) recovery-queue appends are
    /// applied in a single vectorized pass. Host write stats are counted
    /// here.
    ///
    /// `stamp` is the host write time, programmed into every page's OOB
    /// spare area (and stamped on any backup entries) so a post-crash mount
    /// can rebuild the mapping table — and the recovery queue — from flash
    /// alone.
    ///
    /// Payload sizes are validated up front, so an oversized buffer fails
    /// the whole extent before anything is programmed. A mid-batch NAND
    /// fault leaves the leading pages fully applied — mapped, pre-images
    /// invalidated, backup entries pushed — before the error returns.
    /// The programmed prefix is the *acknowledged* part of the extent: its
    /// length is visible to the host as the `host_writes` delta.
    pub(super) fn program_extent_mapped(
        &mut self,
        lba: Lba,
        data: &[Bytes],
        stamp: SimTime,
    ) -> Result<()> {
        let page_size = self.config.geometry().page_size();
        for page in data {
            if page.len() > page_size as usize {
                return Err(NandError::PayloadTooLarge {
                    len: page.len(),
                    page_size,
                }
                .into());
            }
        }
        let ppas = self.allocate_extent(data.len())?;
        let batch: Vec<(Ppa, Bytes, OobTag)> = ppas
            .iter()
            .enumerate()
            .map(|(i, &ppa)| {
                (
                    ppa,
                    data[i].clone(),
                    OobTag::live(lba.offset(i as u64), stamp),
                )
            })
            .collect();
        let (done, result) = self.device.program_pages_tagged(batch);
        let protect = self.retains();
        let mut olds = Vec::with_capacity(done);
        for (i, &new) in ppas[..done].iter().enumerate() {
            let l = lba.offset(i as u64);
            self.rmap[new.index() as usize] = Some(l);
            let old = self.mapping.set(l, Some(new));
            if let Some(old) = old {
                self.supersede(old, protect)?;
            }
            olds.push(old);
        }
        if protect {
            self.queue.push_extent(lba, &olds, stamp);
        }
        self.stats.host_writes += done as u64;
        result.map_err(Into::into)
    }

    /// Unmaps `len` consecutive logical pages in one batched pass,
    /// superseding their current versions. When the drive
    /// [retains](Self::retains), each mapped page is protected and pushes
    /// its backup entry stamped `stamp`, in extent order; trimming a hole
    /// is not an undoable event and leaves no entry. Host trim stats are
    /// counted here.
    pub(super) fn unmap_extent(&mut self, lba: Lba, len: u32, stamp: SimTime) -> Result<()> {
        let protect = self.retains();
        for i in 0..len as u64 {
            let l = lba.offset(i);
            if let Some(old) = self.mapping.set(l, None) {
                self.supersede(old, protect)?;
                if protect {
                    self.queue.push(l, Some(old), stamp);
                }
            }
        }
        self.stats.host_trims += len as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{drive, ftl, put, secs, RETENTIONS};
    use crate::{BackupEntry, FtlError};
    use bytes::Bytes;
    use insider_nand::{Lba, PageState, Ppa, SimTime};

    #[test]
    fn allocation_is_sequential_within_block() {
        let mut f = drive(None);
        let p0 = f.allocate().unwrap();
        f.device.program(p0, Bytes::from_static(b"a")).unwrap();
        let p1 = f.allocate().unwrap();
        assert_eq!(p1.index(), p0.index() + 1);
    }

    #[test]
    fn allocation_skips_to_new_block_when_full() {
        let mut f = drive(None);
        for i in 0..16 {
            let p = f.allocate().unwrap();
            assert_eq!(p.index(), i);
            f.device.program(p, Bytes::from_static(b"x")).unwrap();
        }
        let p = f.allocate().unwrap();
        assert_eq!(p.index(), 16); // first page of next free block
    }

    #[test]
    fn program_extent_tracks_both_maps() {
        let mut f = ftl();
        let lba = Lba::new(3);
        put(&mut f, lba, Bytes::from_static(b"v1"));
        assert_eq!(
            (f.queue.len(), f.queue.protected_count()),
            (1, 0),
            "first write: no pre-image"
        );
        let ppa = f.mapping.get(lba).unwrap();
        assert_eq!(f.rmap[ppa.index() as usize], Some(lba));
        put(&mut f, lba, Bytes::from_static(b"v2"));
        assert!(
            f.queue.is_protected(ppa),
            "superseded page is the pre-image"
        );
        assert_ne!(f.mapping.get(lba), Some(ppa));
    }

    #[test]
    fn extent_allocation_matches_scalar_striping() {
        // The reservation path must hand out exactly the PPAs the scalar
        // allocate-program loop would, in the same die-striped order.
        let mut scalar = drive(None);
        let mut expected = Vec::new();
        for _ in 0..20 {
            let p = scalar.allocate().unwrap();
            scalar.device.program(p, Bytes::from_static(b"s")).unwrap();
            expected.push(p);
        }
        let mut batched = drive(None);
        let payloads = vec![Bytes::from_static(b"s"); 20];
        batched
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO)
            .unwrap();
        let got: Vec<Ppa> = (0..20)
            .map(|i| batched.mapping.get(Lba::new(i)).unwrap())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn extent_program_and_read_round_trip() {
        let mut f = drive(None);
        let payloads: Vec<Bytes> = (0..5)
            .map(|i| Bytes::copy_from_slice(format!("p{i}").as_bytes()))
            .collect();
        f.program_extent_mapped(Lba::new(10), &payloads, SimTime::ZERO)
            .unwrap();
        assert_eq!(f.stats.host_writes, 5);
        let out = f.read_extent_mapped(Lba::new(9), 7).unwrap();
        assert_eq!(out[0], None, "lba 9 never written");
        assert_eq!(out[6], None, "lba 15 never written");
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(out[i + 1].as_ref(), Some(payload));
        }
    }

    #[test]
    fn extent_overwrite_returns_pre_images_to_queue() {
        let mut f = ftl();
        let v1 = vec![Bytes::from_static(b"v1"); 3];
        f.program_extent_mapped(Lba::new(0), &v1, SimTime::ZERO)
            .unwrap();
        let olds: Vec<Ppa> = (0..3)
            .map(|i| f.mapping.get(Lba::new(i)).unwrap())
            .collect();
        let v2 = vec![Bytes::from_static(b"v2"); 3];
        f.program_extent_mapped(Lba::new(0), &v2, secs(1)).unwrap();
        // Three creation entries, then one overwrite entry per page in
        // extent order, each protecting its pre-image.
        assert_eq!(f.queue.len(), 6);
        assert_eq!(f.queue.protected_count(), 3);
        let overwrites: Vec<BackupEntry> = f.queue.iter().skip(3).copied().collect();
        for (i, old) in olds.into_iter().enumerate() {
            assert!(
                f.queue.is_protected(old),
                "pre-image {old} must be protected"
            );
            let want = BackupEntry {
                lba: Lba::new(i as u64),
                old: Some(old),
                stamp: secs(1),
            };
            assert_eq!(overwrites[i], want);
        }
    }

    #[test]
    fn oversized_extent_payload_fails_before_programming() {
        let mut f = drive(None);
        let page = f.config().geometry().page_size() as usize;
        let payloads = vec![Bytes::from_static(b"ok"), Bytes::from(vec![0u8; page + 1])];
        assert!(f
            .program_extent_mapped(Lba::new(0), &payloads, SimTime::ZERO)
            .is_err());
        assert_eq!(
            f.device.stats().programs,
            0,
            "whole extent validated up front"
        );
        assert_eq!(f.mapping.get(Lba::new(0)), None);
    }

    #[test]
    fn unmap_extent_invalidates_and_reports() {
        for window in RETENTIONS {
            let mut f = drive(window);
            let x = vec![Bytes::from_static(b"x"); 2];
            f.program_extent_mapped(Lba::new(0), &x, SimTime::ZERO)
                .unwrap();
            let olds: Vec<Ppa> = (0..2)
                .map(|i| f.mapping.get(Lba::new(i)).unwrap())
                .collect();
            f.unmap_extent(Lba::new(0), 4, secs(1)).unwrap();
            assert_eq!(f.stats.host_trims, 4);
            assert_eq!(
                f.read_extent_mapped(Lba::new(0), 2).unwrap(),
                vec![None, None]
            );
            for &old in &olds {
                assert_eq!(f.device.page_state(old).unwrap(), PageState::Invalid);
            }
            // Only the mapped pages report a backup entry, in extent order,
            // and only on a drive that retains.
            let trims: Vec<(Lba, Option<Ppa>)> = f
                .queue
                .iter()
                .filter(|e| e.stamp == secs(1))
                .map(|e| (e.lba, e.old))
                .collect();
            let mapped = [(Lba::new(0), Some(olds[0])), (Lba::new(1), Some(olds[1]))];
            assert_eq!(trims, if window.is_some() { &mapped[..] } else { &[] });
            assert_eq!(f.queue.protected_count(), trims.len());
        }
    }

    #[test]
    fn check_extent_bounds() {
        let f = drive(None);
        let max = f.mapping.len();
        assert!(f.check_extent(Lba::new(0), max as u32).is_ok());
        assert!(f.check_extent(Lba::new(0), 1).is_ok());
        assert!(matches!(
            f.check_extent(Lba::new(max), 1),
            Err(FtlError::LbaOutOfRange { lba, .. }) if lba == Lba::new(max)
        ));
        assert!(
            f.check_extent(Lba::new(max), 0).is_ok(),
            "empty extent is a no-op"
        );
        assert!(matches!(
            f.check_extent(Lba::new(max - 2), 4),
            Err(FtlError::LbaOutOfRange { lba, .. }) if lba == Lba::new(max)
        ));
        assert!(matches!(
            f.check_extent(Lba::new(u64::MAX), 2),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }
}
