//! Property-based tests for IO-Bond's shadow-vring machinery: the
//! invariants that keep the bridge safe under arbitrary traffic.

use bmhive_iobond::{IoBondProfile, ShadowQueue, StagingPool};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_sim::{prop, SimDuration, SimTime};
use bmhive_virtio::{QueueLayout, Virtqueue, VirtqueueDriver};

const CASES: u64 = 64;

struct Rig {
    board: GuestRam,
    base: GuestRam,
    driver: VirtqueueDriver,
    shadow: ShadowQueue,
    backend: Virtqueue,
}

fn rig(queue_size: u16, pool_slots: u32) -> Rig {
    let mut board = GuestRam::new(1 << 20);
    let mut base = GuestRam::new(16 << 20);
    let guest_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), queue_size);
    let shadow_layout = QueueLayout::contiguous(GuestAddr::new(0x1000), queue_size);
    let driver = VirtqueueDriver::new(&mut board, guest_layout).unwrap();
    let pool = StagingPool::new(GuestAddr::new(0x10_0000), pool_slots, 4096);
    let shadow = ShadowQueue::new(
        IoBondProfile::fpga(),
        guest_layout,
        shadow_layout,
        pool,
        &mut base,
    )
    .unwrap();
    let backend = Virtqueue::new(shadow.shadow_layout());
    Rig {
        board,
        base,
        driver,
        shadow,
        backend,
    }
}

/// Every payload the guest posts arrives at the backend bit-exact,
/// in order, exactly once — across arbitrary batch patterns.
#[test]
fn payloads_cross_domains_exactly_once() {
    prop::check("payloads_cross_domains_exactly_once", CASES, |rng| {
        let batches = prop::vec(rng, 1..12, |r| r.range(1, 5));
        let mut r = rig(32, 256);
        let mut now = SimTime::ZERO;
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut received: Vec<Vec<u8>> = Vec::new();
        let mut counter = 0u64;
        for batch in batches {
            for _ in 0..batch {
                let payload = format!("payload-{counter:06}").into_bytes();
                let addr = GuestAddr::new(0x8000 + (counter % 64) * 256);
                r.board.write(addr, &payload).unwrap();
                r.driver
                    .add_buf(
                        &mut r.board,
                        &[SgSegment::new(addr, payload.len() as u32)],
                        &[],
                    )
                    .unwrap();
                sent.push(payload);
                counter += 1;
            }
            now += SimDuration::from_micros(10);
            r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
            while let Some(chain) = r.backend.pop_avail(&r.base).unwrap() {
                received.push(chain.readable.gather(&r.base).unwrap());
                r.backend.push_used(&mut r.base, chain.head, 0).unwrap();
            }
            r.shadow
                .sync_from_shadow(&mut r.board, &r.base, now, &mut Vec::new())
                .unwrap();
            while r.driver.poll_used(&r.board).unwrap().is_some() {}
        }
        assert_eq!(received, sent);
        assert_eq!(r.shadow.inflight_count(), 0);
        assert_eq!(r.shadow.head_reg(), counter);
        assert_eq!(r.shadow.tail_reg(), counter);
    });
}

/// Response data written by the backend lands in the guest's own
/// buffers, truncated to what was produced.
#[test]
fn responses_return_with_correct_lengths() {
    prop::check("responses_return_with_correct_lengths", CASES, |rng| {
        let requests = prop::vec(rng, 1..20, |r| {
            (r.range(1, 2048) as u32, r.range(0, 2048) as u32)
        });
        let mut r = rig(32, 256);
        let mut now = SimTime::ZERO;
        for (i, (buf_len, produce)) in requests.into_iter().enumerate() {
            let produce = produce.min(buf_len);
            let addr = GuestAddr::new(0x8000 + ((i as u64) % 16) * 4096);
            let head = r
                .driver
                .add_buf(&mut r.board, &[], &[SgSegment::new(addr, buf_len)])
                .unwrap();
            now += SimDuration::from_micros(10);
            r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
            let chain = r.backend.pop_avail(&r.base).unwrap().unwrap();
            let data: Vec<u8> = (0..produce).map(|x| (x % 251) as u8).collect();
            chain.writable.scatter(&mut r.base, &data).unwrap();
            r.backend
                .push_used(&mut r.base, chain.head, produce)
                .unwrap();
            let mut completions = Vec::new();
            r.shadow
                .sync_from_shadow(&mut r.board, &r.base, now, &mut completions)
                .unwrap();
            assert_eq!(completions.len(), 1);
            assert_eq!(completions[0].written, produce);
            let (got_head, got_len) = r.driver.poll_used(&r.board).unwrap().unwrap();
            assert_eq!((got_head, got_len), (head, produce));
            if produce > 0 {
                let bytes = r.board.read_vec(addr, u64::from(produce)).unwrap();
                assert!(bytes
                    .iter()
                    .enumerate()
                    .all(|(x, &b)| b == (x as u32 % 251) as u8));
            }
        }
    });
}

/// Under a starved staging pool, nothing is lost and nothing is
/// duplicated — chains just arrive later.
#[test]
fn starved_pool_conserves_chains() {
    prop::check("starved_pool_conserves_chains", CASES, |rng| {
        let n_chains = rng.range(1, 20);
        let pool_slots = rng.range(2, 6) as u32;
        let mut r = rig(32, pool_slots);
        for i in 0..n_chains {
            let addr = GuestAddr::new(0x8000 + i * 128);
            r.board.write(addr, &i.to_le_bytes()).unwrap();
            r.driver
                .add_buf(&mut r.board, &[SgSegment::new(addr, 8)], &[])
                .unwrap();
        }
        let mut seen = Vec::new();
        // Keep cycling sync/drain until everything lands (bounded).
        for round in 0..200u64 {
            let now = SimTime::from_micros(round);
            r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
            while let Some(chain) = r.backend.pop_avail(&r.base).unwrap() {
                let bytes = chain.readable.gather(&r.base).unwrap();
                seen.push(u64::from_le_bytes(bytes.try_into().unwrap()));
                r.backend.push_used(&mut r.base, chain.head, 0).unwrap();
            }
            r.shadow
                .sync_from_shadow(&mut r.board, &r.base, now, &mut Vec::new())
                .unwrap();
            while r.driver.poll_used(&r.board).unwrap().is_some() {}
            if seen.len() as u64 == n_chains {
                break;
            }
        }
        assert_eq!(seen, (0..n_chains).collect::<Vec<_>>());
        assert_eq!(r.shadow.deferred_count(), 0);
        assert_eq!(r.shadow.inflight_count(), 0);
    });
}

/// Head and tail registers are monotone and tail never passes head.
#[test]
fn head_tail_registers_are_ordered() {
    prop::check("head_tail_registers_are_ordered", CASES, |rng| {
        let ops = prop::vec(rng, 1..60, |r| r.chance(0.5));
        let mut r = rig(16, 128);
        let mut posted = 0u64;
        for (i, post) in ops.into_iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * 10);
            let head_before = r.shadow.head_reg();
            let tail_before = r.shadow.tail_reg();
            if post && r.driver.num_free() > 0 {
                let addr = GuestAddr::new(0x8000 + (posted % 32) * 64);
                r.driver
                    .add_buf(&mut r.board, &[SgSegment::new(addr, 16)], &[])
                    .unwrap();
                posted += 1;
            }
            r.shadow.sync_to_shadow(&r.board, &mut r.base, now).unwrap();
            while let Some(chain) = r.backend.pop_avail(&r.base).unwrap() {
                r.backend.push_used(&mut r.base, chain.head, 0).unwrap();
            }
            r.shadow
                .sync_from_shadow(&mut r.board, &r.base, now, &mut Vec::new())
                .unwrap();
            while r.driver.poll_used(&r.board).unwrap().is_some() {}
            assert!(r.shadow.head_reg() >= head_before);
            assert!(r.shadow.tail_reg() >= tail_before);
            assert!(r.shadow.tail_reg() <= r.shadow.head_reg());
        }
        assert_eq!(r.shadow.head_reg(), posted);
    });
}

/// A hostile guest cannot take down the bridge: after a few honest
/// posts, garbage over the guest's ring area makes syncs fail with
/// typed errors at worst, and the trusted backend side of the shadow
/// ring stays well-formed.
#[test]
fn fuzzed_guest_rings_never_panic_the_bridge() {
    prop::check("fuzzed_guest_rings_never_panic_the_bridge", 256, |rng| {
        let mut r = rig(16, 64);
        let ring = QueueLayout::contiguous(GuestAddr::new(0x1000), 16);
        for i in 0..rng.range(0, 6) {
            let addr = GuestAddr::new(0x8000 + i * 256);
            let len = rng.range(1, 256) as u32;
            r.driver
                .add_buf(&mut r.board, &[SgSegment::new(addr, len)], &[])
                .unwrap();
        }
        let garbage = prop::bytes(rng, 1..ring.footprint() as usize + 1);
        let at = rng.range(0, ring.footprint() - garbage.len() as u64 + 1);
        r.board.write(ring.desc + at, &garbage).unwrap();
        for round in 0..8u64 {
            let now = SimTime::from_micros(round * 10);
            // Typed errors are acceptable; panicking is not.
            let _ = r.shadow.sync_to_shadow(&r.board, &mut r.base, now);
            while let Some(chain) = r.backend.pop_avail(&r.base).unwrap() {
                let written = chain.writable.total_len() as u32;
                r.backend
                    .push_used(&mut r.base, chain.head, written)
                    .unwrap();
            }
            let _ = r
                .shadow
                .sync_from_shadow(&mut r.board, &r.base, now, &mut Vec::new());
        }
    });
}
