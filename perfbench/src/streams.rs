//! Seeded operation streams: the only inputs the program receives.
//!
//! Every stream is a pure function of the `--seed` argument, drawn on
//! its own [`SimRng`] stream so the workloads never share draws.

use bmhive_sim::SimRng;

/// Tenants on the dense server: 16 Atom boards, the paper's maximum.
pub const TENANTS: usize = 16;

/// Smallest and largest frame payload `tenant_net` sends.
pub const FRAME_MIN: usize = 64;
/// See [`FRAME_MIN`].
pub const FRAME_MAX: usize = 1500;

/// Disk transfer sizes: powers of two from 4 to 64 KiB, drawn
/// uniformly (mean 24.8 KiB).
pub const DISK_SIZES: [u64; 5] = [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10];

/// Sectors addressable on each tenant's 40 GiB cloud volume.
pub const VOLUME_SECTORS: u64 = (40 << 30) / 512;

const STREAM_NET: u64 = 0x7e7_0001;
const STREAM_DISK: u64 = 0x7e7_0002;
const STREAM_BYTES: u64 = 0x7e7_0003;

/// One `guest_send`: a frame from tenant `from` to co-resident tenant
/// `to` (never itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOp {
    /// Sending tenant index.
    pub from: usize,
    /// Receiving tenant index.
    pub to: usize,
    /// Payload bytes, in `FRAME_MIN..=FRAME_MAX`.
    pub len: usize,
}

/// The endless `tenant_net` operation stream.
#[derive(Debug, Clone)]
pub struct NetStream(SimRng);

impl NetStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        NetStream(SimRng::with_stream(seed, STREAM_NET))
    }
}

impl Iterator for NetStream {
    type Item = NetOp;

    fn next(&mut self) -> Option<NetOp> {
        let from = self.0.below(TENANTS as u64) as usize;
        let to = (from + 1 + self.0.below(TENANTS as u64 - 1) as usize) % TENANTS;
        let len = self.0.range(FRAME_MIN as u64, FRAME_MAX as u64 + 1) as usize;
        Some(NetOp { from, to, len })
    }
}

/// One `guest_blk`: a cloud-disk read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskOp {
    /// Issuing tenant index.
    pub guest: usize,
    /// A write (otherwise a read).
    pub write: bool,
    /// First sector, 4 KiB aligned.
    pub sector: u64,
    /// Transfer bytes, one of [`DISK_SIZES`].
    pub len: u64,
}

/// The endless `tenant_disk` operation stream: every third operation
/// is a write, so reads outnumber writes two to one.
#[derive(Debug, Clone)]
pub struct DiskStream {
    rng: SimRng,
    issued: u64,
}

impl DiskStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        DiskStream {
            rng: SimRng::with_stream(seed, STREAM_DISK),
            issued: 0,
        }
    }
}

impl Iterator for DiskStream {
    type Item = DiskOp;

    fn next(&mut self) -> Option<DiskOp> {
        let write = self.issued % 3 == 2;
        self.issued += 1;
        let guest = self.rng.below(TENANTS as u64) as usize;
        let len = DISK_SIZES[self.rng.below(DISK_SIZES.len() as u64) as usize];
        let sector = self.rng.below((VOLUME_SECTORS - len / 512) / 8) * 8;
        Some(DiskOp {
            guest,
            write,
            sector,
            len,
        })
    }
}

/// `len` seeded bytes: frame payloads and write data are prefixes of
/// this buffer.
pub fn payload_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::with_stream(seed, STREAM_BYTES);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}
