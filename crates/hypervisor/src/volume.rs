//! The virtio-blk backend's request parsing and synthesized volume
//! contents, shared by the bm-guest and vm-guest backends.
//!
//! Neither backend keeps volume data: a write is priced by the block
//! store and dropped, and a read returns deterministic, sector-seeded
//! bytes so the guest can verify what came back — byte `i` of a read at
//! `sector` is `sector.wrapping_add(i) % 251`. Both helpers touch guest
//! memory only where the request needs it: parsing reads the 16-byte
//! header and nothing of the payload behind it, and a read response is
//! written straight into the chain's writable buffers from a static
//! table, with no per-byte loop and no frame buffer.

use crate::bm::SessionError;
use bmhive_mem::{GuestRam, MemError, SgList};
use bmhive_virtio::{BlkRequestHeader, BlkRequestType, BlkStatus, DescChain};

/// Length of the virtio-blk request header at the head of every chain.
const HDR_LEN: u64 = 16;

/// Period of the volume pattern (prime, so it never lines up with a
/// sector or a page).
const PERIOD: usize = 251;

/// Longest pattern slice written per `GuestRam::write`.
const SLICE: usize = 4096;

/// `CYCLE[k] == k % PERIOD`, so a run of up to `SLICE` pattern bytes at
/// any phase is one subslice.
static CYCLE: [u8; SLICE + PERIOD] = {
    let mut table = [0u8; SLICE + PERIOD];
    let mut k = 0;
    while k < table.len() {
        table[k] = (k % PERIOD) as u8;
        k += 1;
    }
    table
};

/// A blk request as the backend sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlkRequest {
    /// The parsed request header.
    pub hdr: BlkRequestHeader,
    /// Payload bytes the guest supplied after the header (writes).
    pub data_in_len: u64,
    /// Response bytes the guest can take before the status byte (reads).
    pub data_out_len: u64,
}

/// Parses a blk chain from `ram`: reads only the header, and takes both
/// payload lengths from the segment lengths.
///
/// # Errors
///
/// [`SessionError::BadRequest`] if the readable side is shorter than a
/// header or the writable side has no room for the status byte; a memory
/// error if the header itself lies outside `ram`.
pub(crate) fn parse(ram: &GuestRam, chain: &DescChain) -> Result<BlkRequest, SessionError> {
    let data_in_len = chain
        .readable
        .total_len()
        .checked_sub(HDR_LEN)
        .ok_or(SessionError::BadRequest("blk header too short"))?;
    let data_out_len = chain
        .writable
        .total_len()
        .checked_sub(1)
        .ok_or(SessionError::BadRequest("blk chain lacks status byte"))?;
    let mut hdr = [0u8; HDR_LEN as usize];
    chain.readable.read_prefix(ram, &mut hdr)?;
    Ok(BlkRequest {
        hdr: BlkRequestHeader::from_bytes(&hdr),
        data_in_len,
        data_out_len,
    })
}

/// The longest run (at most `max` and at most `SLICE` bytes) of the
/// pattern for `sector` starting at byte `offset` that does not cross
/// the point where `sector + offset` wraps past `u64::MAX` — the one
/// place the pattern's phase jumps.
fn pattern_run(sector: u64, offset: u64, max: u64) -> &'static [u8] {
    let at = sector.wrapping_add(offset);
    let before_wrap = (u64::MAX - at).saturating_add(1);
    let len = max.min(SLICE as u64).min(before_wrap) as usize;
    let phase = (at % PERIOD as u64) as usize;
    &CYCLE[phase..phase + len]
}

/// Writes the response to a read at `sector` across `writable`: the
/// volume pattern into every byte but the last, then `status` into the
/// last. Returns the bytes written (`writable.total_len()`).
///
/// # Errors
///
/// Returns [`MemError::OutOfBounds`] if a segment exceeds `ram`; the
/// failing segment is untouched, earlier ones are already written (the
/// `SgList::scatter` contract).
fn write_read_response(
    ram: &mut GuestRam,
    writable: &SgList,
    sector: u64,
    status: BlkStatus,
) -> Result<u64, MemError> {
    let total = writable.total_len();
    let data_len = total.saturating_sub(1);
    let mut offset = 0u64;
    for seg in writable.segments() {
        if offset >= total {
            break;
        }
        ram.check_range(seg.addr, u64::from(seg.len))?;
        let end = offset + u64::from(seg.len);
        let mut at = seg.addr;
        while offset < end.min(data_len) {
            let run = pattern_run(sector, offset, end.min(data_len) - offset);
            ram.write(at, run)?;
            at = at + run.len() as u64;
            offset += run.len() as u64;
        }
        if offset == data_len && data_len < end {
            ram.write_u8(at, status.to_wire())?;
            offset += 1;
        }
    }
    Ok(offset)
}

/// Writes the response to `req` into the chain's `writable` buffers
/// and returns the length the used ring reports: for a read, the volume
/// pattern and then `status` (every writable byte); for anything else,
/// `status` alone in the byte after `data_out_len` (1).
///
/// # Errors
///
/// Returns [`MemError::OutOfBounds`] if a written segment lies outside
/// `ram`.
pub(crate) fn write_response(
    ram: &mut GuestRam,
    writable: &SgList,
    req: &BlkRequest,
    status: BlkStatus,
) -> Result<u32, MemError> {
    if req.hdr.req_type == BlkRequestType::In {
        return Ok(write_read_response(ram, writable, req.hdr.sector, status)? as u32);
    }
    let (_, status_sg) = writable.split_at(req.data_out_len);
    status_sg.scatter(ram, &[status.to_wire()])?;
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BmGuestSession, VmGuestSession};
    use bmhive_cloud::blockstore::{BlockStore, StorageClass};
    use bmhive_cloud::limits::InstanceLimits;
    use bmhive_iobond::IoBondProfile;
    use bmhive_mem::{GuestAddr, SgSegment};
    use bmhive_net::MacAddr;
    use bmhive_sim::SimTime;

    /// The per-byte synthesis both backends ran before the table: the
    /// oracle the helper must reproduce bit for bit.
    fn per_byte_formula(sector: u64, len: u64) -> Vec<u8> {
        (0..len)
            .map(|i| (sector.wrapping_add(i) % 251) as u8)
            .collect()
    }

    /// Writable segments covering `len + 1` bytes, cut at uneven points
    /// (and through page boundaries) so runs restart mid-segment.
    fn writable_for(len: u64) -> SgList {
        let total = len + 1;
        let mut segs = Vec::new();
        let mut addr = 0x1_0000 - 3;
        let mut left = total;
        for cut in [7, 4099, 250, 9000] {
            let take = left.min(cut);
            segs.push(SgSegment::new(GuestAddr::new(addr), take as u32));
            addr += take + 64;
            left -= take;
        }
        segs.push(SgSegment::new(GuestAddr::new(addr), left as u32));
        SgList::from_segments(segs)
    }

    #[test]
    fn read_response_matches_the_per_byte_formula() {
        for len in [0, 1, 250, 251, 252, 4095, 4096, 4097, 65536] {
            for sector in [0, 1, 250, 251, u64::MAX - 2] {
                let writable = writable_for(len);
                let mut ram = GuestRam::new(1 << 20);
                // A status distinct from every early pattern byte, so a
                // misplaced status byte shows.
                let written =
                    write_read_response(&mut ram, &writable, sector, BlkStatus::IoErr).unwrap();
                assert_eq!(written, len + 1, "len {len} sector {sector}");
                let mut want = per_byte_formula(sector, len);
                want.push(BlkStatus::IoErr.to_wire());
                assert_eq!(
                    writable.gather(&ram).unwrap(),
                    want,
                    "len {len} sector {sector}"
                );
            }
        }
    }

    #[test]
    fn pattern_phase_jumps_where_the_sector_wraps() {
        // u64::MAX % 251 == 68, so the bytes run 66, 67, 68 and then
        // restart at 0 when sector + i wraps to zero, not at 69.
        let sector = u64::MAX - 2;
        assert_eq!(per_byte_formula(sector, 5), [66, 67, 68, 0, 1]);
        let writable = SgList::single(GuestAddr::new(0), 6);
        let mut ram = GuestRam::new(4096);
        write_read_response(&mut ram, &writable, sector, BlkStatus::Ok).unwrap();
        assert_eq!(
            ram.read_vec(GuestAddr::new(0), 5).unwrap(),
            [66, 67, 68, 0, 1]
        );
    }

    #[test]
    fn read_response_without_room_for_status_writes_nothing() {
        let mut ram = GuestRam::new(4096);
        let empty = SgList::single(GuestAddr::new(0), 0);
        assert_eq!(
            write_read_response(&mut ram, &empty, 9, BlkStatus::Ok).unwrap(),
            0
        );
        assert_eq!(ram.resident_pages(), 0);
    }

    #[test]
    fn malformed_chains_are_bad_requests() {
        let mut ram = GuestRam::new(1 << 16);
        ram.write(
            GuestAddr::new(0),
            &BlkRequestHeader::new(BlkRequestType::In, 7).to_bytes(),
        )
        .unwrap();
        let chain = |readable: u32, writable: u32| DescChain {
            head: 0,
            readable: SgList::single(GuestAddr::new(0), readable),
            writable: SgList::single(GuestAddr::new(0x100), writable),
        };
        assert!(matches!(
            parse(&ram, &chain(15, 4)),
            Err(SessionError::BadRequest("blk header too short"))
        ));
        assert!(matches!(
            parse(&ram, &chain(16, 0)),
            Err(SessionError::BadRequest("blk chain lacks status byte"))
        ));
        let req = parse(&ram, &chain(16 + 512, 4097)).unwrap();
        assert_eq!(req.hdr, BlkRequestHeader::new(BlkRequestType::In, 7));
        assert_eq!((req.data_in_len, req.data_out_len), (512, 4096));
    }

    #[test]
    fn bm_and_vm_sessions_read_identical_volume_bytes() {
        let mut bm = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        );
        let mut vm =
            VmGuestSession::new(MacAddr::for_guest(2), 64, InstanceLimits::unrestricted(), 3);
        let mut store_bm = BlockStore::new(StorageClass::CloudSsd, 5);
        let mut store_vm = BlockStore::new(StorageClass::CloudSsd, 5);
        for (sector, len) in [(0, 4096), (250, 512), (12_345, 65536), (u64::MAX - 2, 4096)] {
            let (bm_status, bm_bytes, _) = bm
                .blk_request(
                    &mut store_bm,
                    BlkRequestType::In,
                    sector,
                    &[],
                    len,
                    SimTime::ZERO,
                )
                .unwrap();
            let (vm_status, vm_bytes, _) = vm
                .blk_request(
                    &mut store_vm,
                    BlkRequestType::In,
                    sector,
                    &[],
                    len,
                    SimTime::ZERO,
                )
                .unwrap();
            assert_eq!((bm_status, vm_status), (BlkStatus::Ok, BlkStatus::Ok));
            assert_eq!(bm_bytes, vm_bytes, "sector {sector} len {len}");
            assert_eq!(bm_bytes, per_byte_formula(sector, len));
        }
    }
}
