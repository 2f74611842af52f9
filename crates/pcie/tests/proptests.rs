//! Property-based tests for the PCIe config space and MSI machinery.

use bmhive_pcie::{Capability, ConfigSpace, MsiQueue};
use bmhive_sim::{prop, SimTime};

const CASES: u64 = 256;

/// The read-only header fields survive arbitrary write storms.
#[test]
fn header_identity_is_immutable() {
    prop::check("header_identity_is_immutable", CASES, |rng| {
        let writes = prop::vec(rng, 1..100, |r| {
            (r.range(0, 64) as u16, *r.choose(&[1u8, 2, 4]), r.next_u32())
        });
        let mut cfg = ConfigSpace::builder(0x1af4, 0x1042)
            .class(0x01, 0x00, 0x00)
            .revision(0x01)
            .subsystem(0x1af4, 0x0002)
            .bar_mem32(0, 0x4000)
            .build();
        for (offset, width, value) in writes {
            let offset = offset - offset % u16::from(width);
            cfg.write(offset, width, value);
        }
        assert_eq!(cfg.vendor_id(), 0x1af4);
        assert_eq!(cfg.device_id(), 0x1042);
        assert_eq!(cfg.read(0x08, 4), 0x0100_0001); // class/revision
        assert_eq!(cfg.read(0x2c, 4), 0x0002_1af4); // subsystem
    });
}

/// BAR sizing: whatever address is programmed, the readback is
/// size-aligned and the sizing probe always reports the same size.
#[test]
fn bar_readback_is_always_size_aligned() {
    prop::check("bar_readback_is_always_size_aligned", CASES, |rng| {
        let size = 1u32 << rng.range(4, 24);
        let addrs = prop::vec(rng, 1..20, |r| r.next_u32());
        let mut cfg = ConfigSpace::builder(1, 2).bar_mem32(0, size).build();
        for addr in addrs {
            cfg.write(0x10, 4, addr);
            let readback = cfg.read(0x10, 4);
            assert_eq!(
                readback % size,
                0,
                "readback {:#x} vs size {:#x}",
                readback,
                size
            );
            // The sizing probe.
            cfg.write(0x10, 4, 0xffff_ffff);
            assert_eq!(cfg.read(0x10, 4) & !0xf, !(size - 1) & !0xf);
        }
    });
}

/// Byte / word / dword reads always agree with each other.
#[test]
fn access_widths_are_consistent() {
    prop::check("access_widths_are_consistent", CASES, |rng| {
        let offset = rng.range(0, 62) as u16 & !1;
        let cfg = ConfigSpace::builder(0xabcd, 0x1234)
            .class(0x02, 0x03, 0x04)
            .subsystem(0x5678, 0x9abc)
            .bar_mem32(0, 0x1000)
            .build();
        let offset = offset & !3; // dword-align for the 4-byte read
        let dword = cfg.read(offset, 4);
        let lo = cfg.read(offset, 2);
        let hi = cfg.read(offset + 2, 2);
        assert_eq!(dword, lo | (hi << 16));
        let bytes: Vec<u32> = (0..4).map(|i| cfg.read(offset + i, 1)).collect();
        let rebuilt = bytes[0] | (bytes[1] << 8) | (bytes[2] << 16) | (bytes[3] << 24);
        assert_eq!(dword, rebuilt);
    });
}

/// The capability list is always acyclic and within bounds, for any
/// set of capability bodies.
#[test]
fn capability_chain_is_well_formed() {
    prop::check("capability_chain_is_well_formed", CASES, |rng| {
        let caps = prop::vec(rng, 0..6, |r| {
            (r.range(1, 0x15) as u8, prop::bytes(r, 0..20))
        });
        let mut builder = ConfigSpace::builder(1, 2);
        let count = caps.len();
        for (id, body) in caps {
            builder = builder.capability(Capability::new(id, body));
        }
        let cfg = builder.build();
        let walked = cfg.capabilities();
        assert_eq!(walked.len(), count);
        let mut offsets: Vec<u16> = walked.iter().map(|(o, _)| *o).collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), offsets.len(), "no offset repeats (acyclic)");
        offsets.retain(|&o| o >= 0x40);
        assert_eq!(offsets.len(), count, "capabilities start after the header");
    });
}

/// MSI conservation: every unmasked post is delivered exactly once;
/// masked posts coalesce but never exceed one per unmask.
#[test]
fn msi_posts_are_conserved() {
    prop::check("msi_posts_are_conserved", CASES, |rng| {
        let ops = prop::vec(rng, 1..200, |r| {
            (
                r.range(0, 4) as u16,
                *r.choose(&["post", "mask", "unmask", "drain"]),
            )
        });
        let mut q = MsiQueue::new(4);
        let mut drained = 0u64;
        for (i, (vector, op)) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64);
            match op {
                "post" => q.post(vector, now),
                "mask" => q.mask(vector),
                "unmask" => q.unmask(vector, now),
                _ => drained += q.drain().count() as u64,
            }
        }
        drained += q.drain().count() as u64;
        assert_eq!(drained, q.delivered_count());
    });
}
