//! virtio-net frame assembly and parsing, shared by the bm-guest and
//! vm-guest paths.
//!
//! A frame is a virtio-net header followed by the payload. Both helpers
//! move the payload straight between the caller's slice and the chain's
//! segments — no header-plus-payload assembly buffer on the way in, no
//! whole-frame gather on the way out.

use crate::bm::SessionError;
use bmhive_mem::{GuestRam, MemError, SgList};
use bmhive_virtio::{VirtioNetHeader, VIRTIO_NET_HDR_LEN};

/// Writes a simple virtio-net header and then `payload` across `sg`,
/// exactly as one scatter of header ‖ payload would. Returns the bytes
/// written (`min(sg.total_len(), header + payload.len())`).
///
/// # Errors
///
/// Returns [`MemError::OutOfBounds`] if a touched segment exceeds `ram`;
/// earlier segments may already have been written.
pub(crate) fn write_frame(
    ram: &mut GuestRam,
    sg: &SgList,
    payload: &[u8],
) -> Result<u64, MemError> {
    let (hdr_sg, body_sg) = sg.split_at(VIRTIO_NET_HDR_LEN.min(sg.total_len()));
    let hdr = hdr_sg.scatter(ram, &VirtioNetHeader::simple().to_bytes())?;
    Ok(hdr + body_sg.scatter(ram, payload)?)
}

/// Reads the payload of the `len`-byte frame at the head of `sg` (its
/// header skipped) into a new `Vec`.
///
/// # Errors
///
/// [`SessionError::BadRequest`] with `why` if `len` is shorter than the
/// header or longer than `sg`; a memory error if the payload lies
/// outside `ram`.
pub(crate) fn read_payload(
    ram: &GuestRam,
    sg: &SgList,
    len: u64,
    why: &'static str,
) -> Result<Vec<u8>, SessionError> {
    if len < VIRTIO_NET_HDR_LEN || len > sg.total_len() {
        return Err(SessionError::BadRequest(why));
    }
    let (frame, _) = sg.split_at(len);
    let (_, body) = frame.split_at(VIRTIO_NET_HDR_LEN);
    Ok(body.gather(ram)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_mem::{GuestAddr, SgSegment};

    /// Segments cut inside the header and inside the payload.
    fn uneven() -> SgList {
        SgList::from_segments(vec![
            SgSegment::new(GuestAddr::new(0x100), 5),
            SgSegment::new(GuestAddr::new(0x200), 20),
            SgSegment::new(GuestAddr::new(0x300), 0),
            SgSegment::new(GuestAddr::new(0xff0), 40),
        ])
    }

    #[test]
    fn write_frame_matches_one_scatter_of_header_and_payload() {
        let payload: Vec<u8> = (1..=50).collect();
        for cap in [0u32, 3, 12, 13, 65] {
            let sg = uneven().split_at(u64::from(cap)).0;
            let mut ram = GuestRam::new(1 << 16);
            let mut want_ram = ram.clone();
            let mut frame = VirtioNetHeader::simple().to_bytes().to_vec();
            frame.extend_from_slice(&payload);
            let want = sg.scatter(&mut want_ram, &frame).unwrap();
            assert_eq!(
                write_frame(&mut ram, &sg, &payload).unwrap(),
                want,
                "cap {cap}"
            );
            assert_eq!(sg.gather(&ram).unwrap(), sg.gather(&want_ram).unwrap());
        }
    }

    #[test]
    fn read_payload_skips_the_header_and_stops_at_len() {
        let sg = uneven();
        let mut ram = GuestRam::new(1 << 16);
        let payload: Vec<u8> = (1..=50).collect();
        write_frame(&mut ram, &sg, &payload).unwrap();
        let len = VIRTIO_NET_HDR_LEN + 30;
        assert_eq!(
            read_payload(&ram, &sg, len, "short").unwrap(),
            payload[..30]
        );
        assert!(read_payload(&ram, &sg, VIRTIO_NET_HDR_LEN, "short")
            .unwrap()
            .is_empty());
        for bad in [VIRTIO_NET_HDR_LEN - 1, sg.total_len() + 1] {
            assert!(matches!(
                read_payload(&ram, &sg, bad, "short"),
                Err(SessionError::BadRequest("short"))
            ));
        }
    }
}
