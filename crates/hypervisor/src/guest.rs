//! The guest kernel's side of the virtio-net and virtio-blk devices,
//! shared by both platforms.
//!
//! §3.1's interoperability claim is that a guest runs the same virtio
//! drivers whether KVM/vhost or IO-Bond plus a bm-hypervisor sits behind
//! the device. [`GuestDriver`] is that one driver: it lays out the rx,
//! tx and blk rings and the three buffer arenas in guest RAM, posts
//! frames and requests, and reaps their completions. The bm and vm
//! sessions each hold one and supply only what sits behind the rings.
//!
//! Posted buffers live in slabs indexed by the chain's head, and blk
//! chains are assembled in reused scratch lists, so a warmed post/reap
//! cycle allocates nothing beyond the bytes it hands back.

use crate::bm::SessionError;
use crate::netframe;
use bmhive_iobond::StagingPool;
use bmhive_mem::{GuestAddr, GuestRam, SgList, SgSegment};
use bmhive_virtio::{
    BlkRequestHeader, BlkRequestType, BlkStatus, QueueLayout, VirtqueueDriver, VIRTIO_NET_HDR_LEN,
};

/// Size of one posted rx buffer (hdr + MTU frame).
const RX_BUF: u32 = 2048;

/// One guest's virtio-net rx/tx and virtio-blk drivers with their
/// buffer arenas.
#[derive(Debug)]
pub(crate) struct GuestDriver {
    rx: VirtqueueDriver,
    tx: VirtqueueDriver,
    blk: VirtqueueDriver,
    rx_pool: StagingPool,
    tx_pool: StagingPool,
    blk_pool: StagingPool,
    /// rx heads → their buffer slot (`None` = not posted).
    rx_posted: Vec<Option<SgList>>,
    /// tx heads → their buffer slot (`None` = not posted).
    tx_posted: Vec<Option<SgList>>,
    /// blk heads → their buffer slots (empty = not posted); reaped
    /// slots keep their capacity.
    blk_posted: Vec<Vec<SgList>>,
    /// Reused readable-segment list for blk chain assembly.
    blk_readable: Vec<SgSegment>,
    /// Reused writable-segment list for blk chain assembly.
    blk_writable: Vec<SgSegment>,
    /// Reused staging-slot list for blk chain assembly; swaps with the
    /// `blk_posted` slab so capacities circulate instead of reallocating.
    blk_slots: Vec<SgList>,
    /// Packets sent / received / block ops completed.
    counters: (u64, u64, u64),
}

impl GuestDriver {
    /// Lays out the rx, tx and blk rings (`queue_size` entries each)
    /// from `0x10_000` in `ram`, carves the tx/rx/blk buffer arenas at
    /// 16/32/64 MiB, and stocks the rx ring.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two or `ram` is smaller
    /// than the memory map.
    pub(crate) fn new(ram: &mut GuestRam, queue_size: u16) -> Self {
        let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x10_000), queue_size);
        let tx_layout = QueueLayout::contiguous(
            (rx_layout.used + rx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let blk_layout = QueueLayout::contiguous(
            (tx_layout.used + tx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let slots = u32::from(queue_size);
        let mut guest = GuestDriver {
            rx: VirtqueueDriver::new(ram, rx_layout).expect("rx ring"),
            tx: VirtqueueDriver::new(ram, tx_layout).expect("tx ring"),
            blk: VirtqueueDriver::new(ram, blk_layout).expect("blk ring"),
            rx_pool: StagingPool::new(GuestAddr::new(0x200_0000), 2 * slots, RX_BUF),
            tx_pool: StagingPool::new(GuestAddr::new(0x100_0000), 2 * slots, 4096),
            blk_pool: StagingPool::new(GuestAddr::new(0x400_0000), 4 * slots, 64 * 1024),
            rx_posted: vec![None; usize::from(queue_size)],
            tx_posted: vec![None; usize::from(queue_size)],
            blk_posted: vec![Vec::new(); usize::from(queue_size)],
            blk_readable: Vec::new(),
            blk_writable: Vec::new(),
            blk_slots: Vec::new(),
            counters: (0, 0, 0),
        };
        guest.replenish_rx(ram).expect("initial rx buffers");
        guest
    }

    /// The rx, tx and blk ring layouts, in that order.
    pub(crate) fn layouts(&self) -> [QueueLayout; 3] {
        [*self.rx.layout(), *self.tx.layout(), *self.blk.layout()]
    }

    /// Packets sent / received / block ops completed so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        self.counters
    }

    /// Writes hdr + `payload` into a tx buffer and posts it. Returns
    /// whether the device's EVENT_IDX threshold asks for a kick (Linux's
    /// `virtqueue_kick_prepare`); a backend that takes every kick
    /// ignores it.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoBuffers`] if the tx arena is exhausted, or a
    /// ring/memory error; the buffer is returned to the arena either way.
    pub(crate) fn post_tx(
        &mut self,
        ram: &mut GuestRam,
        payload: &[u8],
    ) -> Result<bool, SessionError> {
        let total = VIRTIO_NET_HDR_LEN + payload.len() as u64;
        let buf = self.tx_pool.alloc(total).ok_or(SessionError::NoBuffers)?;
        let old_avail = self.tx.avail_idx();
        // The buffer may span slots; the frame is written across it.
        let posted = netframe::write_frame(ram, &buf, payload)
            .map_err(SessionError::from)
            .and_then(|_| Ok(self.tx.add_buf(ram, buf.segments(), &[])?));
        match posted {
            Ok(head) => {
                self.tx_posted[usize::from(head)] = Some(buf);
                Ok(self.tx.kick_needed_event_idx(ram, old_avail)?)
            }
            Err(e) => {
                self.tx_pool.free(&buf);
                Err(e)
            }
        }
    }

    /// Reaps every tx completion, freeing its buffer, and counts one
    /// sent packet.
    pub(crate) fn reap_tx(&mut self, ram: &GuestRam) -> Result<(), SessionError> {
        while let Some((head, _)) = self.tx.poll_used(ram)? {
            if let Some(buf) = self.tx_posted[usize::from(head)].take() {
                self.tx_pool.free(&buf);
            }
        }
        self.counters.0 += 1;
        Ok(())
    }

    /// Keeps the rx ring stocked with buffers, as a net driver's NAPI
    /// refill does.
    fn replenish_rx(&mut self, ram: &mut GuestRam) -> Result<(), SessionError> {
        while self.rx.num_free() > 0 {
            let Some(buf) = self.rx_pool.alloc(u64::from(RX_BUF)) else {
                break;
            };
            match self.rx.add_buf(ram, &[], buf.segments()) {
                Ok(head) => self.rx_posted[usize::from(head)] = Some(buf),
                Err(e) => {
                    self.rx_pool.free(&buf);
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    /// The rx interrupt handler: reaps every rx completion, restocks the
    /// ring and counts one received packet. Returns the payload of the
    /// last frame reaped, if any.
    pub(crate) fn reap_rx(&mut self, ram: &mut GuestRam) -> Result<Option<Vec<u8>>, SessionError> {
        let mut delivered = None;
        while let Some((head, len)) = self.rx.poll_used(ram)? {
            let buf = self
                .rx_posted
                .get_mut(usize::from(head))
                .and_then(Option::take)
                .ok_or(SessionError::BadRequest("unknown rx head"))?;
            let payload =
                netframe::read_payload(ram, &buf, u64::from(len), "rx frame shorter than header");
            self.rx_pool.free(&buf);
            delivered = Some(payload?);
        }
        self.replenish_rx(ram)?;
        self.counters.1 += 1;
        Ok(delivered)
    }

    /// Posts one blk request: a 16-byte header, the data (`data` for a
    /// write, `read_len` bytes of room for a read) and the status byte.
    /// Returns whether the device asks for a kick, as
    /// [`post_tx`](Self::post_tx) does.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoBuffers`] if the blk arena cannot hold the
    /// request, or a ring/memory error. Every slot already taken goes
    /// back to the arena first, so a failed request leaks nothing.
    pub(crate) fn post_blk(
        &mut self,
        ram: &mut GuestRam,
        req: BlkRequestType,
        sector: u64,
        data: &[u8],
        read_len: u64,
    ) -> Result<bool, SessionError> {
        let old_avail = self.blk.avail_idx();
        let hdr = BlkRequestHeader::new(req, sector);
        match self.assemble_blk(ram, hdr, data, read_len) {
            Ok(head) => {
                std::mem::swap(&mut self.blk_posted[usize::from(head)], &mut self.blk_slots);
                debug_assert!(
                    self.blk_slots.is_empty(),
                    "blk slab slot reused while posted"
                );
                Ok(self.blk.kick_needed_event_idx(ram, old_avail)?)
            }
            Err(e) => {
                for slot in self.blk_slots.drain(..) {
                    self.blk_pool.free(&slot);
                }
                Err(e)
            }
        }
    }

    /// Takes the blk request's slots into `blk_slots`, lays its segments
    /// out in the readable/writable scratch lists (steady-state requests
    /// allocate nothing here), and posts the chain.
    fn assemble_blk(
        &mut self,
        ram: &mut GuestRam,
        hdr: BlkRequestHeader,
        data: &[u8],
        read_len: u64,
    ) -> Result<u16, SessionError> {
        let Self {
            blk,
            blk_pool,
            blk_readable: readable,
            blk_writable: writable,
            blk_slots: slots,
            ..
        } = self;
        readable.clear();
        writable.clear();
        let mut take = |bytes: u64| blk_pool.alloc(bytes).ok_or(SessionError::NoBuffers);
        slots.push(take(16)?);
        slots[0].scatter(ram, &hdr.to_bytes())?;
        readable.extend_from_slice(slots[0].segments());
        if matches!(hdr.req_type, BlkRequestType::In) && read_len > 0 {
            slots.push(take(read_len)?);
            writable.extend_from_slice(slots[1].segments());
        } else if !data.is_empty() {
            slots.push(take(data.len() as u64)?);
            slots[1].scatter(ram, data)?;
            readable.extend_from_slice(slots[1].segments());
        }
        slots.push(take(1)?);
        writable.extend_from_slice(slots[slots.len() - 1].segments());
        Ok(blk.add_buf(ram, readable, writable)?)
    }

    /// Reaps every blk completion, freeing its slots, and counts one
    /// block op. Returns the last completion's status and, for a read
    /// (`is_read`), its data; `IoErr` and no data if nothing completed.
    pub(crate) fn reap_blk(
        &mut self,
        ram: &GuestRam,
        is_read: bool,
    ) -> Result<(BlkStatus, Vec<u8>), SessionError> {
        let mut result = (BlkStatus::IoErr, Vec::new());
        while let Some((head, _len)) = self.blk.poll_used(ram)? {
            let posted = self
                .blk_posted
                .get_mut(usize::from(head))
                .filter(|slots| !slots.is_empty())
                .ok_or(SessionError::BadRequest("unknown blk head"))?;
            std::mem::swap(posted, &mut self.blk_slots);
            // Last slot is the status byte; for reads the middle slot is
            // the data. The slots go back to the arena even if reading
            // them fails.
            let slots = &self.blk_slots;
            let mut status = [0u8; 1];
            let data = slots
                .last()
                .expect("status slot")
                .read_prefix(ram, &mut status)
                .and_then(|_| match slots.len() {
                    3 if is_read => slots[1].gather(ram),
                    _ => Ok(Vec::new()),
                });
            for slot in self.blk_slots.drain(..) {
                self.blk_pool.free(&slot);
            }
            result = (BlkStatus::from_wire(status[0]), data?);
        }
        self.counters.2 += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BmGuestSession, VmGuestSession};
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_iobond::IoBondProfile;
    use bmhive_net::{MacAddr, PacketKind};
    use bmhive_sim::{prop, SimTime};

    fn sessions() -> (BmGuestSession, VmGuestSession) {
        let bm = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        );
        let vm = VmGuestSession::new(MacAddr::for_guest(1), 64, InstanceLimits::unrestricted(), 3);
        (bm, vm)
    }

    /// Descriptor conservation: nothing tx or blk is left posted, every
    /// arena slot is back, and the rx ring is fully stocked.
    fn assert_at_rest(guest: &GuestDriver, platform: &str) {
        for (name, ring, pool) in [
            ("tx", &guest.tx, &guest.tx_pool),
            ("blk", &guest.blk, &guest.blk_pool),
        ] {
            assert_eq!(
                ring.outstanding(),
                0,
                "{platform}: {name} chains left posted"
            );
            assert_eq!(
                pool.free_count(),
                pool.total_slots(),
                "{platform}: {name} slots leaked"
            );
        }
        assert_eq!(guest.rx.num_free(), 0, "{platform}: rx ring not full");
        assert_eq!(guest.rx.outstanding(), usize::from(guest.rx.layout().size));
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn guest_arena_double_free_panics_after_traffic() {
        let (mut bm, _) = sessions();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 1);
        let mut t = SimTime::ZERO;
        for i in 0..16usize {
            let payload = vec![i as u8; 100 + 97 * i];
            t = bm
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, &payload, t)
                .unwrap()
                .1
                .completed;
            t = bm.net_receive(&payload, t).unwrap().1.completed;
            let (_, _, timing) = bm
                .blk_request(
                    &mut store,
                    BlkRequestType::In,
                    0,
                    &[],
                    4096 * (i as u64 + 1),
                    t,
                )
                .unwrap();
            t = timing.completed;
        }
        assert_at_rest(&bm.guest, "bm");
        let guest = &mut bm.guest;
        let (tx, blk) = (
            guest.tx_pool.alloc(10).unwrap(),
            guest.blk_pool.alloc(10).unwrap(),
        );
        guest.tx_pool.free(&tx);
        guest.blk_pool.free(&blk);
        guest.blk_pool.free(&blk);
    }

    #[test]
    fn failed_blk_requests_return_every_slot() {
        let (mut bm, mut vm) = sessions();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 1);
        // 32 MiB outgrows the 16 MiB arena (NoBuffers after the header
        // slot is taken); 4 MiB fits the arena but needs 66 descriptors
        // on a 64-entry ring (ChainTooLong after every slot is taken).
        for i in 0..300u64 {
            let read_len = if i % 2 == 0 { 32 << 20 } else { 4 << 20 };
            let t = SimTime::from_micros(i);
            let bm_err = bm.blk_request(&mut store, BlkRequestType::In, 0, &[], read_len, t);
            let vm_err = vm.blk_request(&mut store, BlkRequestType::In, 0, &[], read_len, t);
            assert!(bm_err.is_err() && vm_err.is_err(), "request {i} fit");
        }
        assert_at_rest(&bm.guest, "bm");
        assert_at_rest(&vm.guest, "vm");
        let t = SimTime::from_millis(1);
        let (status, data, _) = bm
            .blk_request(&mut store, BlkRequestType::In, 8, &[], 4096, t)
            .unwrap();
        assert_eq!((status, data.len()), (BlkStatus::Ok, 4096));
        let (status, data, _) = vm
            .blk_request(&mut store, BlkRequestType::In, 8, &[], 4096, t)
            .unwrap();
        assert_eq!((status, data.len()), (BlkStatus::Ok, 4096));
    }

    /// The same random op sequence through both platforms returns the
    /// same bytes, statuses and counters, and leaves both guests at rest
    /// after every op.
    #[test]
    fn bm_and_vm_guests_agree_at_rest() {
        prop::check("bm_and_vm_guests_agree_at_rest", 24, |rng| {
            let (mut bm, mut vm) = sessions();
            let mut bm_store = BlockStore::new(StorageClass::CloudSsd, 5);
            let mut vm_store = BlockStore::new(StorageClass::CloudSsd, 5);
            let (mut bm_t, mut vm_t) = (SimTime::ZERO, SimTime::ZERO);
            for _ in 0..rng.range(1, 48) {
                let payload = prop::bytes(rng, 0..1501);
                match rng.below(3) {
                    0 => {
                        let dst = MacAddr::for_guest(2);
                        let (b, bt) = bm.net_send(dst, PacketKind::Udp, &payload, bm_t).unwrap();
                        let (v, vt) = vm.net_send(dst, PacketKind::Udp, &payload, vm_t).unwrap();
                        assert_eq!(b.payload, payload);
                        assert_eq!((b.payload, b.packet), (v.payload, v.packet));
                        (bm_t, vm_t) = (bt.completed, vt.completed);
                    }
                    1 => {
                        let (b, bt) = bm.net_receive(&payload, bm_t).unwrap();
                        let (v, vt) = vm.net_receive(&payload, vm_t).unwrap();
                        assert_eq!(b, payload);
                        assert_eq!(b, v);
                        (bm_t, vm_t) = (bt.completed, vt.completed);
                    }
                    _ => {
                        let len = rng.range(1, 64 * 1024 + 1);
                        let (req, data, read_len) = match rng.below(3) {
                            0 => (
                                BlkRequestType::Out,
                                prop::bytes(rng, 1..len as usize + 1),
                                0,
                            ),
                            1 => (BlkRequestType::In, Vec::new(), len),
                            _ => (BlkRequestType::Flush, Vec::new(), 0),
                        };
                        let sector = rng.below(1 << 20);
                        let (bs, bd, bt) = bm
                            .blk_request(&mut bm_store, req, sector, &data, read_len, bm_t)
                            .unwrap();
                        let (vs, vd, vt) = vm
                            .blk_request(&mut vm_store, req, sector, &data, read_len, vm_t)
                            .unwrap();
                        assert_eq!((bs, bd.len() as u64), (BlkStatus::Ok, read_len));
                        assert_eq!((bs, bd), (vs, vd));
                        (bm_t, vm_t) = (bt.completed, vt.completed);
                    }
                }
                assert_eq!(bm.counters(), vm.counters());
                assert_at_rest(&bm.guest, "bm");
                assert_at_rest(&vm.guest, "vm");
            }
        });
    }
}
