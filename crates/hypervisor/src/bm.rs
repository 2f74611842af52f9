//! One bm-guest and its bm-hypervisor backend process.
//!
//! [`BmGuestSession`] wires together everything §3.3 describes for one
//! guest: the compute board's RAM with the guest's virtio driver rings,
//! two IO-Bond devices (net + blk) bridging to shadow vrings in the
//! bm-hypervisor process's base RAM, poll-mode backends consuming the
//! shadow rings, the instance rate limits, and the cloud services. Every
//! packet and block request really crosses both memory domains through
//! the rings — no shortcut paths.

use bmhive_cloud::blockstore::{BlockStore, IoKind};
use bmhive_cloud::limits::InstanceLimits;
use bmhive_faults::{self as faults, FaultKind, FaultSite};
use bmhive_iobond::{IoBondDevice, IoBondProfile, ServiceReport, StagingPool};
use bmhive_mem::{GuestAddr, GuestRam, SgSegment};
use bmhive_net::{MacAddr, Packet, PacketKind};
use bmhive_sim::{SimDuration, SimTime};
use bmhive_telemetry as telemetry;
use bmhive_virtio::{
    BlkRequestHeader, BlkRequestType, BlkStatus, DescChain, DeviceType, Feature, QueueLayout,
    VirtioError, VirtioNetHeader, Virtqueue, VirtqueueDriver, VIRTIO_NET_HDR_LEN,
};
use std::error::Error;
use std::fmt;

/// Queue indices on the net device.
const RX_Q: usize = 0;
const TX_Q: usize = 1;

/// Errors from guest I/O operations.
#[derive(Debug)]
pub enum SessionError {
    /// A virtio ring failed.
    Virtio(VirtioError),
    /// Guest-side buffers are exhausted.
    NoBuffers,
    /// The backend received a malformed request.
    BadRequest(&'static str),
    /// A fault at `site` exhausted its retry budget during `op` without
    /// clearing: the operation never went through and the device path
    /// needs a reset. Surfaced per-op (the second half of the
    /// partial-recovery contract) instead of stats-only attribution.
    Escalated {
        /// The fault site whose retry budget ran out.
        site: FaultSite,
        /// The session operation that observed the exhausted budget.
        op: &'static str,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Virtio(e) => write!(f, "virtio failure: {e}"),
            SessionError::NoBuffers => write!(f, "guest buffer pool exhausted"),
            SessionError::BadRequest(why) => write!(f, "malformed request: {why}"),
            SessionError::Escalated { site, op } => {
                write!(
                    f,
                    "unrecovered fault at {} escalated during {op}",
                    site.name()
                )
            }
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Virtio(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VirtioError> for SessionError {
    fn from(e: VirtioError) -> Self {
        SessionError::Virtio(e)
    }
}

impl From<bmhive_mem::MemError> for SessionError {
    fn from(e: bmhive_mem::MemError) -> Self {
        SessionError::Virtio(VirtioError::Mem(e))
    }
}

/// Timing of one completed guest I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoTiming {
    /// When the guest issued the request (kick).
    pub submitted: SimTime,
    /// When the completion (MSI + reap) reached the guest.
    pub completed: SimTime,
}

impl IoTiming {
    /// The guest-observed latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_duration_since(self.submitted)
    }
}

/// A packet handed to the vSwitch by the backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgressPacket {
    /// Frame metadata.
    pub packet: Packet,
    /// Payload bytes (after the virtio-net header).
    pub payload: Vec<u8>,
    /// When the backend handed it to the switch.
    pub at: SimTime,
}

/// Outcome of one board power-loss recovery (see
/// [`BmGuestSession::poll_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardOutage {
    /// When both devices were re-handshaken and live again.
    pub recovered_at: SimTime,
    /// Chains that were inflight at the loss and replayed after it.
    pub replayed_chains: u64,
}

/// One bm-guest with its dedicated bm-hypervisor process.
#[derive(Debug)]
pub struct BmGuestSession {
    profile: IoBondProfile,
    mac: MacAddr,
    board: GuestRam,
    base: GuestRam,
    net_dev: IoBondDevice,
    blk_dev: IoBondDevice,
    net_rx_driver: VirtqueueDriver,
    net_tx_driver: VirtqueueDriver,
    blk_driver: VirtqueueDriver,
    net_rx_backend: Virtqueue,
    net_tx_backend: Virtqueue,
    blk_backend: Virtqueue,
    tx_pool: StagingPool,
    rx_pool: StagingPool,
    blk_pool: StagingPool,
    limits: InstanceLimits,
    /// Where the next recovery epoch's shadow rings go in base RAM
    /// (each reset rebuilds at a fresh region, like a fresh mmap in a
    /// restarted backend process).
    next_base_region: GuestAddr,
    /// rx guest heads → their buffer slot, for reuse after delivery.
    /// Slab indexed by head (`None` = not posted).
    rx_posted: Vec<Option<bmhive_mem::SgList>>,
    /// tx guest heads → their buffer slot. Slab indexed by head.
    tx_posted: Vec<Option<bmhive_mem::SgList>>,
    /// blk guest heads → their buffer slots. Slab indexed by head
    /// (empty = not posted); completed slots keep their capacity.
    blk_posted: Vec<Vec<bmhive_mem::SgList>>,
    /// blk shadow-side completions pending backend processing:
    /// shadow head → store completion time.
    total_tx: u64,
    total_rx: u64,
    total_io: u64,
    /// Guest kicks skipped because the post landed inside the PMD's
    /// published EVENT_IDX poll window (the poller was going to see the
    /// descriptors anyway — §3.4.2's polling discipline).
    doorbells_suppressed: u64,
    /// Reused service-pass report (steady-state passes allocate nothing).
    svc_report: ServiceReport,
    /// Reused hdr+payload assembly buffer for net frames.
    frame_scratch: Vec<u8>,
    /// Reused readable-segment list for blk chain assembly.
    blk_readable: Vec<SgSegment>,
    /// Reused writable-segment list for blk chain assembly.
    blk_writable: Vec<SgSegment>,
    /// Reused staging-slot list for blk chain assembly; swaps with the
    /// `blk_posted` slab so capacities circulate instead of reallocating.
    blk_slots: Vec<bmhive_mem::SgList>,
}

/// Size of one posted rx buffer (hdr + MTU frame).
const RX_BUF: u32 = 2048;

/// Surfaces a latched escalation from a device's last service pass as a
/// per-op error.
fn check_escalation(dev: &mut IoBondDevice, op: &'static str) -> Result<(), SessionError> {
    match dev.take_escalation() {
        Some(site) => Err(SessionError::Escalated { site, op }),
        None => Ok(()),
    }
}

impl BmGuestSession {
    /// The guest's interrupt handler: acknowledges every MSI the
    /// devices raised during a service pass, so the delivery queues
    /// stay bounded however many ops the session runs.
    fn ack_interrupts(&mut self) {
        self.net_dev.msi_mut().drain().for_each(drop);
        self.blk_dev.msi_mut().drain().for_each(drop);
    }

    /// Builds a powered-on, handshaken guest: queues of `queue_size`
    /// entries, a 64 MiB board arena for I/O buffers, production or
    /// unrestricted `limits`.
    ///
    /// # Panics
    ///
    /// Panics if `queue_size` is not a power of two (virtio requirement).
    pub fn new(
        profile: IoBondProfile,
        mac: MacAddr,
        queue_size: u16,
        limits: InstanceLimits,
    ) -> Self {
        let mut board = GuestRam::new(256 << 20);
        let mut base = GuestRam::new(256 << 20);

        // Guest ring layouts in board RAM.
        let rx_layout = QueueLayout::contiguous(GuestAddr::new(0x10_000), queue_size);
        let tx_layout = QueueLayout::contiguous(
            (rx_layout.used + rx_layout.footprint()).align_up(4096),
            queue_size,
        );
        let blk_layout = QueueLayout::contiguous(
            (tx_layout.used + tx_layout.footprint()).align_up(4096),
            queue_size,
        );

        // IO-Bond devices with their frontends.
        let mut net_dev = IoBondDevice::new(
            profile,
            DeviceType::Net,
            Feature::NetMac as u64 | Feature::RingIndirectDesc as u64,
            queue_size,
            bmhive_virtio::NetConfig::with_mac(mac.0)
                .to_bytes()
                .to_vec(),
        );
        let mut blk_dev = IoBondDevice::new(
            profile,
            DeviceType::Block,
            Feature::BlkFlush as u64 | Feature::RingIndirectDesc as u64,
            queue_size,
            bmhive_virtio::BlkConfig::with_capacity_bytes(40 << 30)
                .to_bytes()
                .to_vec(),
        );

        // Driver handshakes (the full register-level handshake is
        // exercised in the virtio/pcie tests; sessions use the shortcut).
        net_dev
            .function_mut()
            .state_mut()
            .driver_handshake(&[rx_layout, tx_layout]);
        blk_dev
            .function_mut()
            .state_mut()
            .driver_handshake(&[blk_layout]);

        // The deployed backend discipline is poll-mode (§3.4.2): its
        // shadow queues publish a ring-wide EVENT_IDX window, so guest
        // kicks that land mid-scan are suppressed at the source.
        let window = crate::pmd::BackendMode::PollMode.event_idx_window(queue_size);
        net_dev.set_event_idx_window(window);
        blk_dev.set_event_idx_window(window);

        // Shadow rings + staging pools in the backend's base RAM.
        let net_base = GuestAddr::new(0x100_000);
        let used = net_dev.activate(&mut base, net_base).expect("net activate");
        let blk_base = (net_base + used).align_up(4096);
        let blk_used = blk_dev.activate(&mut base, blk_base).expect("blk activate");
        let next_base_region = (blk_base + blk_used).align_up(4096);

        let net_rx_backend = Virtqueue::new(net_dev.shadow(RX_Q).expect("active").shadow_layout());
        let net_tx_backend = Virtqueue::new(net_dev.shadow(TX_Q).expect("active").shadow_layout());
        let blk_backend = Virtqueue::new(blk_dev.shadow(0).expect("active").shadow_layout());

        let net_rx_driver = VirtqueueDriver::new(&mut board, rx_layout).expect("rx ring");
        let net_tx_driver = VirtqueueDriver::new(&mut board, tx_layout).expect("tx ring");
        let blk_driver = VirtqueueDriver::new(&mut board, blk_layout).expect("blk ring");

        // Guest-side buffer arenas in board RAM.
        let tx_pool = StagingPool::new(GuestAddr::new(0x100_0000), 2 * u32::from(queue_size), 4096);
        let rx_pool = StagingPool::new(
            GuestAddr::new(0x200_0000),
            2 * u32::from(queue_size),
            RX_BUF,
        );
        let blk_pool = StagingPool::new(
            GuestAddr::new(0x400_0000),
            4 * u32::from(queue_size),
            64 * 1024,
        );

        let mut session = BmGuestSession {
            profile,
            mac,
            board,
            base,
            net_dev,
            blk_dev,
            net_rx_driver,
            net_tx_driver,
            blk_driver,
            net_rx_backend,
            net_tx_backend,
            blk_backend,
            tx_pool,
            rx_pool,
            blk_pool,
            limits,
            next_base_region,
            rx_posted: (0..queue_size).map(|_| None).collect(),
            tx_posted: (0..queue_size).map(|_| None).collect(),
            blk_posted: (0..queue_size).map(|_| Vec::new()).collect(),
            total_tx: 0,
            total_rx: 0,
            total_io: 0,
            doorbells_suppressed: 0,
            svc_report: ServiceReport::default(),
            frame_scratch: Vec::new(),
            blk_readable: Vec::new(),
            blk_writable: Vec::new(),
            blk_slots: Vec::new(),
        };
        session.replenish_rx().expect("initial rx buffers");
        session
    }

    /// The guest's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The IO-Bond hardware profile in use.
    pub fn profile(&self) -> &IoBondProfile {
        &self.profile
    }

    /// Packets sent / received / block ops completed so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.total_tx, self.total_rx, self.total_io)
    }

    /// Guest kicks suppressed by the PMD's EVENT_IDX window so far.
    pub fn doorbells_suppressed(&self) -> u64 {
        self.doorbells_suppressed
    }

    /// Register accesses a full virtio re-handshake costs per device:
    /// status dance, feature negotiation, and per-queue programming.
    const HANDSHAKE_REGISTER_HOPS: u64 = 24;

    /// Checks the armed fault plan for a compute-board power loss and,
    /// if one fires at `now`, runs the full recovery path: both IO-Bond
    /// functions are flagged needs-reset, re-handshaken at a fresh base
    /// region once power returns, the poll-mode backends are rebuilt
    /// from the new shadow rings, and every inflight chain is replayed.
    ///
    /// Returns `None` when no plan is armed or no power loss fires.
    ///
    /// # Errors
    ///
    /// Fails if a device cannot complete its recovery handshake.
    pub fn poll_faults(&mut self, now: SimTime) -> Result<Option<BoardOutage>, SessionError> {
        if !faults::is_armed() {
            return Ok(None);
        }
        let Some(outage) = faults::take_oneshot(FaultSite::Board, FaultKind::PowerLoss, now) else {
            return Ok(None);
        };

        // The board browned out: both functions lose their backend
        // epoch and latch DEVICE_NEEDS_RESET.
        self.net_dev.mark_backend_failed();
        self.blk_dev.mark_backend_failed();
        debug_assert!(self.net_dev.needs_reset() && self.blk_dev.needs_reset());

        // Recovery can only start once power is back.
        let restart = now + outage;
        let net_base = self.next_base_region;
        let net_report = self
            .net_dev
            .recover_from_backend_failure(&mut self.base, net_base)?;
        let blk_base = (net_base + net_report.base_bytes).align_up(4096);
        let blk_report = self
            .blk_dev
            .recover_from_backend_failure(&mut self.base, blk_base)?;
        self.next_base_region = (blk_base + blk_report.base_bytes).align_up(4096);

        // The old backend process is gone with its ring cursors; build
        // fresh poll-mode consumers over the new shadow rings.
        self.net_rx_backend = Virtqueue::new(
            self.net_dev
                .shadow(RX_Q)
                .expect("recovered")
                .shadow_layout(),
        );
        self.net_tx_backend = Virtqueue::new(
            self.net_dev
                .shadow(TX_Q)
                .expect("recovered")
                .shadow_layout(),
        );
        self.blk_backend =
            Virtqueue::new(self.blk_dev.shadow(0).expect("recovered").shadow_layout());

        faults::note_reset(FaultSite::Board);
        faults::note_reset(FaultSite::Board);
        faults::note_degraded(FaultSite::Board, outage);

        // Each device replays the full register-level handshake over
        // the guest link before it is live again. Each hop takes the
        // fault-aware path: a latency spike active at restart stretches
        // the whole handshake.
        let hop = self.profile.guest_link().register_access_at(restart);
        let handshake = hop * 2 * Self::HANDSHAKE_REGISTER_HOPS;
        let recovered_at = restart + handshake;
        let replayed_chains = net_report.replayed_chains + blk_report.replayed_chains;
        if telemetry::is_enabled() {
            telemetry::span(
                "bm",
                "board_recovery",
                now,
                recovered_at.saturating_duration_since(now),
            );
            telemetry::counter("bm.board_resets", 1);
            telemetry::counter("bm.replayed_chains", replayed_chains);
        }
        Ok(Some(BoardOutage {
            recovered_at,
            replayed_chains,
        }))
    }

    /// Keeps the rx ring stocked with buffers, as a net driver's NAPI
    /// refill does.
    fn replenish_rx(&mut self) -> Result<(), SessionError> {
        while self.net_rx_driver.num_free() > 0 {
            let Some(buf) = self.rx_pool.alloc(u64::from(RX_BUF)) else {
                break;
            };
            let head = self
                .net_rx_driver
                .add_buf(&mut self.board, &[], buf.segments())?;
            self.rx_posted[usize::from(head)] = Some(buf);
        }
        Ok(())
    }

    /// Sends one packet: writes it into board RAM, posts it on the tx
    /// ring, kicks IO-Bond, lets the PMD backend consume the shadow ring
    /// and produce the egress frame, then completes the guest ring.
    ///
    /// Returns the egress packet (for the caller to hand to the vSwitch)
    /// and the guest-observed timing.
    ///
    /// # Errors
    ///
    /// Fails on ring errors or buffer exhaustion.
    pub fn net_send(
        &mut self,
        dst: MacAddr,
        kind: PacketKind,
        payload: &[u8],
        now: SimTime,
    ) -> Result<(EgressPacket, IoTiming), SessionError> {
        // Guest: build hdr + payload in board RAM.
        let total = VIRTIO_NET_HDR_LEN + payload.len() as u64;
        let buf = self.tx_pool.alloc(total).ok_or(SessionError::NoBuffers)?;
        let hdr = VirtioNetHeader::simple();
        // The buffer may span slots; scatter hdr+payload across it
        // (assembled in the reused frame buffer).
        let mut bytes = std::mem::take(&mut self.frame_scratch);
        bytes.clear();
        bytes.extend_from_slice(&hdr.to_bytes());
        bytes.extend_from_slice(payload);
        buf.scatter(&mut self.board, &bytes)?;
        self.frame_scratch = bytes;
        let old_avail = self.net_tx_driver.avail_idx();
        let head = self
            .net_tx_driver
            .add_buf(&mut self.board, buf.segments(), &[])?;
        self.tx_posted[usize::from(head)] = Some(buf);

        // Kick: one PCI write across the guest link (fault-aware: a
        // link flap stalls the kick, a spike stretches it) — unless the
        // post landed inside the PMD's published EVENT_IDX window, in
        // which case the doorbell is suppressed and costs nothing.
        let kicked = if self
            .net_tx_driver
            .kick_needed_event_idx(&self.board, old_avail)?
        {
            now + self.profile.guest_link().register_access_at(now)
        } else {
            self.doorbells_suppressed += 1;
            if telemetry::is_enabled() {
                telemetry::counter("bm.doorbells_suppressed", 1);
            }
            now
        };

        // IO-Bond syncs the chain into the shadow ring.
        self.net_dev.service_into(
            &mut self.board,
            &mut self.base,
            kicked,
            &mut self.svc_report,
        )?;
        self.ack_interrupts();
        check_escalation(&mut self.net_dev, "net_send")?;
        let synced_at = self.svc_report.tx[TX_Q].done_at;

        // Backend PMD sees the head register move (one base-side
        // register read through the mailbox: a mailbox stall blocks the
        // poll) and consumes the shadow chain.
        let (poll_cost, poll_escalated) = self
            .net_dev
            .shadow(TX_Q)
            .expect("activated")
            .register_poll_recovery_at(synced_at);
        if poll_escalated {
            return Err(SessionError::Escalated {
                site: FaultSite::Mailbox,
                op: "net_send",
            });
        }
        let seen = synced_at + poll_cost;
        let chain = self
            .net_tx_backend
            .pop_avail(&self.base)?
            .ok_or(SessionError::BadRequest(
                "tx chain missing from shadow ring",
            ))?;
        let mut frame = std::mem::take(&mut self.frame_scratch);
        chain.readable.gather_into(&self.base, &mut frame)?;
        if frame.len() < VIRTIO_NET_HDR_LEN as usize {
            return Err(SessionError::BadRequest(
                "frame shorter than virtio-net header",
            ));
        }
        let payload_out = frame[VIRTIO_NET_HDR_LEN as usize..].to_vec();
        self.frame_scratch = frame;
        let packet = Packet::new(self.mac, dst, kind, payload_out.len() as u32, self.total_tx);

        // Rate limiting at the backend (identical for vm-guests).
        let admitted = self.limits.admit_packet(packet.wire_bytes(), seen);

        // Backend completes the shadow chain; IO-Bond returns the
        // completion to the guest with an MSI.
        self.net_tx_backend
            .push_used(&mut self.base, chain.head, 0)?;
        self.net_dev.service_into(
            &mut self.board,
            &mut self.base,
            admitted,
            &mut self.svc_report,
        )?;
        self.ack_interrupts();
        check_escalation(&mut self.net_dev, "net_send")?;
        let done = self
            .svc_report
            .completions
            .first()
            .map(|c| c.at)
            .unwrap_or(admitted);
        // Guest reaps and frees the buffer.
        while let Some((head, _)) = self.net_tx_driver.poll_used(&self.board)? {
            if let Some(buf) = self.tx_posted[usize::from(head)].take() {
                self.tx_pool.free(&buf);
            }
        }
        self.total_tx += 1;
        // The phase spans are recorded after the fact (every boundary
        // is only known once the exchange is priced), so error paths
        // above can never leave a span open.
        if telemetry::is_enabled() {
            let op = telemetry::begin("bm", "net_send", now);
            telemetry::span("bm", "kick", now, kicked.saturating_duration_since(now));
            telemetry::span(
                "bm",
                "shadow_sync",
                kicked,
                synced_at.saturating_duration_since(kicked),
            );
            telemetry::span(
                "bm",
                "pmd_poll",
                synced_at,
                seen.saturating_duration_since(synced_at),
            );
            telemetry::span(
                "bm",
                "throttle",
                seen,
                admitted.saturating_duration_since(seen),
            );
            telemetry::span(
                "bm",
                "complete",
                admitted,
                done.saturating_duration_since(admitted),
            );
            telemetry::end(op, done);
            telemetry::counter("bm.net_tx_packets", 1);
            telemetry::timer("bm.net_send", done.saturating_duration_since(now));
        }
        Ok((
            EgressPacket {
                packet,
                payload: payload_out,
                at: admitted,
            },
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// Delivers one ingress packet to the guest: the backend fills a
    /// posted rx buffer in the shadow ring; IO-Bond DMA-copies it into
    /// the guest's buffer and raises the MSI; the guest reaps it.
    ///
    /// Returns the payload as the guest read it, and the timing (from
    /// backend receipt to guest reap).
    ///
    /// # Errors
    ///
    /// Fails on ring errors; returns `NoBuffers` if the guest has no rx
    /// buffer posted (the frame would be dropped).
    pub fn net_receive(
        &mut self,
        payload: &[u8],
        now: SimTime,
    ) -> Result<(Vec<u8>, IoTiming), SessionError> {
        // Make sure freshly-posted buffers have propagated to the shadow
        // ring.
        self.net_dev
            .service_into(&mut self.board, &mut self.base, now, &mut self.svc_report)?;
        self.ack_interrupts();
        check_escalation(&mut self.net_dev, "net_receive")?;
        let chain = self
            .net_rx_backend
            .pop_avail(&self.base)?
            .ok_or(SessionError::NoBuffers)?;
        // Backend writes hdr + payload into the staging buffer
        // (assembled in the reused frame buffer).
        let mut bytes = std::mem::take(&mut self.frame_scratch);
        bytes.clear();
        bytes.extend_from_slice(&VirtioNetHeader::simple().to_bytes());
        bytes.extend_from_slice(payload);
        let written = chain.writable.scatter(&mut self.base, &bytes)?;
        self.frame_scratch = bytes;
        self.net_rx_backend
            .push_used(&mut self.base, chain.head, written as u32)?;

        // IO-Bond copies back and interrupts the guest.
        self.net_dev
            .service_into(&mut self.board, &mut self.base, now, &mut self.svc_report)?;
        self.ack_interrupts();
        check_escalation(&mut self.net_dev, "net_receive")?;
        let done = self
            .svc_report
            .completions
            .first()
            .map(|c| c.at)
            .unwrap_or(now);

        // Guest interrupt handler reaps.
        let mut delivered = None;
        while let Some((head, len)) = self.net_rx_driver.poll_used(&self.board)? {
            let buf = self
                .rx_posted
                .get_mut(usize::from(head))
                .and_then(Option::take)
                .ok_or(SessionError::BadRequest("unknown rx head"))?;
            let mut data = std::mem::take(&mut self.frame_scratch);
            buf.gather_into(&self.board, &mut data)?;
            let len = len as usize;
            if len < VIRTIO_NET_HDR_LEN as usize || len > data.len() {
                return Err(SessionError::BadRequest("rx frame shorter than header"));
            }
            delivered = Some(data[VIRTIO_NET_HDR_LEN as usize..len].to_vec());
            self.frame_scratch = data;
            self.rx_pool.free(&buf);
        }
        self.replenish_rx()?;
        self.total_rx += 1;
        let payload_out = delivered.ok_or(SessionError::BadRequest("no rx completion"))?;
        if telemetry::is_enabled() {
            telemetry::span(
                "bm",
                "net_receive",
                now,
                done.saturating_duration_since(now),
            );
            telemetry::counter("bm.net_rx_packets", 1);
            telemetry::timer("bm.net_receive", done.saturating_duration_since(now));
        }
        Ok((
            payload_out,
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// Issues one block request against `store` and runs it to
    /// completion: header + data + status cross to the shadow ring, the
    /// backend executes it on the store (after the IOPS/bandwidth caps),
    /// and the completion flows back with the data.
    ///
    /// For reads, returns the bytes read.
    ///
    /// # Errors
    ///
    /// Fails on ring errors or buffer exhaustion.
    pub fn blk_request(
        &mut self,
        store: &mut BlockStore,
        req: BlkRequestType,
        sector: u64,
        data: &[u8],
        read_len: u64,
        now: SimTime,
    ) -> Result<(BlkStatus, Vec<u8>, IoTiming), SessionError> {
        // Guest: header buffer (16 B) + data + status byte.
        let hdr_buf = self.blk_pool.alloc(16).ok_or(SessionError::NoBuffers)?;
        let hdr = BlkRequestHeader::new(req, sector);
        hdr_buf.scatter(&mut self.board, &hdr.to_bytes())?;
        // Assemble the chain in the reused scratch lists (steady-state
        // requests allocate nothing here).
        let mut readable = std::mem::take(&mut self.blk_readable);
        readable.clear();
        readable.extend_from_slice(hdr_buf.segments());
        let mut writable = std::mem::take(&mut self.blk_writable);
        writable.clear();
        let mut slots = std::mem::take(&mut self.blk_slots);
        slots.clear();
        slots.push(hdr_buf);

        let is_read = matches!(req, BlkRequestType::In);
        if is_read && read_len > 0 {
            let buf = self
                .blk_pool
                .alloc(read_len)
                .ok_or(SessionError::NoBuffers)?;
            writable.extend_from_slice(buf.segments());
            slots.push(buf);
        } else if !data.is_empty() {
            let buf = self
                .blk_pool
                .alloc(data.len() as u64)
                .ok_or(SessionError::NoBuffers)?;
            buf.scatter(&mut self.board, data)?;
            readable.extend_from_slice(buf.segments());
            slots.push(buf);
        }
        let status_buf = self.blk_pool.alloc(1).ok_or(SessionError::NoBuffers)?;
        writable.extend_from_slice(status_buf.segments());
        slots.push(status_buf);

        let old_avail = self.blk_driver.avail_idx();
        let head = self
            .blk_driver
            .add_buf(&mut self.board, &readable, &writable)?;
        std::mem::swap(&mut self.blk_posted[usize::from(head)], &mut slots);
        debug_assert!(slots.is_empty(), "blk slab slot reused while posted");
        self.blk_slots = slots;
        self.blk_readable = readable;
        self.blk_writable = writable;

        // Kick + sync to shadow (kick and PMD poll both take the
        // fault-aware register paths). A post inside the PMD's
        // published EVENT_IDX window suppresses the kick entirely.
        let kicked = if self
            .blk_driver
            .kick_needed_event_idx(&self.board, old_avail)?
        {
            now + self.profile.guest_link().register_access_at(now)
        } else {
            self.doorbells_suppressed += 1;
            if telemetry::is_enabled() {
                telemetry::counter("bm.doorbells_suppressed", 1);
            }
            now
        };
        self.blk_dev.service_into(
            &mut self.board,
            &mut self.base,
            kicked,
            &mut self.svc_report,
        )?;
        self.ack_interrupts();
        check_escalation(&mut self.blk_dev, "blk_request")?;
        let synced_at = self.svc_report.tx[0].done_at;
        let (poll_cost, poll_escalated) = self
            .blk_dev
            .shadow(0)
            .expect("activated")
            .register_poll_recovery_at(synced_at);
        if poll_escalated {
            return Err(SessionError::Escalated {
                site: FaultSite::Mailbox,
                op: "blk_request",
            });
        }
        let synced = synced_at + poll_cost;

        // Backend: parse, rate-limit, execute on the store.
        let chain = self
            .blk_backend
            .pop_avail(&self.base)?
            .ok_or(SessionError::BadRequest(
                "blk chain missing from shadow ring",
            ))?;
        let (_status, written, io_done) = self.execute_blk(store, &chain, synced)?;
        self.blk_backend
            .push_used(&mut self.base, chain.head, written)?;

        // Completion back to the guest.
        self.blk_dev.service_into(
            &mut self.board,
            &mut self.base,
            io_done,
            &mut self.svc_report,
        )?;
        self.ack_interrupts();
        check_escalation(&mut self.blk_dev, "blk_request")?;
        let done = self
            .svc_report
            .completions
            .first()
            .map(|c| c.at)
            .unwrap_or(io_done);

        // Guest reaps: read status byte and data.
        let mut result = (BlkStatus::IoErr, Vec::new());
        while let Some((h, _len)) = self.blk_driver.poll_used(&self.board)? {
            let mut slots = std::mem::take(&mut self.blk_slots);
            let posted = self
                .blk_posted
                .get_mut(usize::from(h))
                .ok_or(SessionError::BadRequest("unknown blk head"))?;
            std::mem::swap(posted, &mut slots);
            if slots.is_empty() {
                return Err(SessionError::BadRequest("unknown blk head"));
            }
            // Last slot is the status byte; for reads the middle slot is
            // the data.
            let status_slot = slots.last().expect("status slot");
            let mut status = std::mem::take(&mut self.frame_scratch);
            status_slot.gather_into(&self.board, &mut status)?;
            let status_byte = status[0];
            self.frame_scratch = status;
            let data_out = if is_read && slots.len() == 3 {
                slots[1].gather(&self.board)?
            } else {
                Vec::new()
            };
            result = (BlkStatus::from_wire(status_byte), data_out);
            for slot in &slots {
                self.blk_pool.free(slot);
            }
            slots.clear();
            self.blk_slots = slots;
        }
        self.total_io += 1;
        if telemetry::is_enabled() {
            let op = telemetry::begin("bm", "blk_request", now);
            telemetry::span("bm", "kick", now, kicked.saturating_duration_since(now));
            telemetry::span(
                "bm",
                "shadow_sync",
                kicked,
                synced_at.saturating_duration_since(kicked),
            );
            telemetry::span(
                "bm",
                "pmd_poll",
                synced_at,
                synced.saturating_duration_since(synced_at),
            );
            telemetry::span(
                "bm",
                "backend_execute",
                synced,
                io_done.saturating_duration_since(synced),
            );
            telemetry::span(
                "bm",
                "complete",
                io_done,
                done.saturating_duration_since(io_done),
            );
            telemetry::end(op, done);
            telemetry::counter("bm.blk_ops", 1);
            telemetry::timer("bm.blk_request", done.saturating_duration_since(now));
        }
        Ok((
            result.0,
            result.1,
            IoTiming {
                submitted: now,
                completed: done,
            },
        ))
    }

    /// The backend half of a block request: parse the header out of the
    /// shadow chain, apply the instance caps, run the store, fill the
    /// response.
    fn execute_blk(
        &mut self,
        store: &mut BlockStore,
        chain: &DescChain,
        now: SimTime,
    ) -> Result<(BlkStatus, u32, SimTime), SessionError> {
        let mut readable = std::mem::take(&mut self.frame_scratch);
        chain.readable.gather_into(&self.base, &mut readable)?;
        if readable.len() < 16 {
            self.frame_scratch = readable;
            return Err(SessionError::BadRequest("blk header too short"));
        }
        let hdr = BlkRequestHeader::from_bytes(&readable);
        let data_in_len = readable.len() as u64 - 16;
        self.frame_scratch = readable;
        let writable_len = chain.writable.total_len();
        if writable_len == 0 {
            return Err(SessionError::BadRequest("blk chain lacks status byte"));
        }
        let data_out_len = writable_len - 1;

        match hdr.req_type {
            BlkRequestType::In => {
                let admitted = self.limits.admit_io(data_out_len, now);
                let io = store.submit(IoKind::Read, data_out_len, admitted);
                // Synthesize deterministic volume contents: sector-seeded
                // bytes, so reads are verifiable (assembled in the reused
                // frame buffer).
                let mut bytes = std::mem::take(&mut self.frame_scratch);
                bytes.clear();
                for i in 0..data_out_len {
                    bytes.push((hdr.sector.wrapping_add(i) % 251) as u8);
                }
                bytes.push(BlkStatus::Ok.to_wire());
                let written = chain.writable.scatter(&mut self.base, &bytes)?;
                self.frame_scratch = bytes;
                Ok((BlkStatus::Ok, written as u32, io.complete_at))
            }
            BlkRequestType::Out => {
                let admitted = self.limits.admit_io(data_in_len, now);
                let io = store.submit(IoKind::Write, data_in_len, admitted);
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.base, &[BlkStatus::Ok.to_wire()])?;
                Ok((BlkStatus::Ok, 1, io.complete_at))
            }
            BlkRequestType::Flush => {
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.base, &[BlkStatus::Ok.to_wire()])?;
                Ok((BlkStatus::Ok, 1, now + SimDuration::from_micros(50)))
            }
            BlkRequestType::Unsupported(_) => {
                let (_, status_sg) = chain.writable.split_at(data_out_len);
                status_sg.scatter(&mut self.base, &[BlkStatus::Unsupported.to_wire()])?;
                Ok((BlkStatus::Unsupported, 1, now))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::blockstore::StorageClass;

    fn session() -> BmGuestSession {
        BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        )
    }

    #[test]
    fn net_send_crosses_both_domains() {
        let mut s = session();
        let (egress, timing) = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"hello-switch",
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(egress.payload, b"hello-switch");
        assert_eq!(egress.packet.src, MacAddr::for_guest(1));
        assert_eq!(egress.packet.payload, 12);
        // The guest paid at least the kick + DMA + MSI costs.
        assert!(
            timing.latency() > SimDuration::from_micros(2),
            "{}",
            timing.latency()
        );
        assert_eq!(s.counters().0, 1);
    }

    #[test]
    fn net_receive_delivers_payload_into_board_ram() {
        let mut s = session();
        let (payload, timing) = s
            .net_receive(b"ingress-frame", SimTime::from_micros(5))
            .unwrap();
        assert_eq!(payload, b"ingress-frame");
        assert!(timing.completed > timing.submitted);
        assert_eq!(s.counters().1, 1);
    }

    #[test]
    fn echo_round_trip_preserves_bytes() {
        let mut s = session();
        let msg = vec![0xa5u8; 700];
        let (egress, _) = s
            .net_send(MacAddr::for_guest(2), PacketKind::Udp, &msg, SimTime::ZERO)
            .unwrap();
        let (back, _) = s
            .net_receive(&egress.payload, SimTime::from_micros(50))
            .unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn blk_write_then_read_round_trip() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 42);
        let data = vec![7u8; 4096];
        let (status, _, t1) = s
            .blk_request(
                &mut store,
                BlkRequestType::Out,
                100,
                &data,
                0,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert!(t1.latency() > SimDuration::from_micros(50));
        let (status, out, t2) = s
            .blk_request(&mut store, BlkRequestType::In, 100, &[], 4096, t1.completed)
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert_eq!(out.len(), 4096);
        // Deterministic synthetic volume contents.
        assert_eq!(out[0], 100u8);
        assert!(t2.latency() > SimDuration::from_micros(50));
        assert_eq!(s.counters().2, 2);
    }

    #[test]
    fn unsupported_blk_request_reports_status() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
        let (status, _, _) = s
            .blk_request(
                &mut store,
                BlkRequestType::Unsupported(9),
                0,
                &[],
                0,
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(status, BlkStatus::Unsupported);
    }

    #[test]
    fn flush_completes_ok() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 1);
        let (status, _, t) = s
            .blk_request(&mut store, BlkRequestType::Flush, 0, &[], 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(status, BlkStatus::Ok);
        assert!(t.latency() >= SimDuration::from_micros(50));
    }

    #[test]
    fn production_limits_shape_io_rate() {
        let mut s = BmGuestSession::new(
            IoBondProfile::fpga(),
            MacAddr::for_guest(3),
            64,
            InstanceLimits::production(),
        );
        let mut store = BlockStore::new(StorageClass::CloudSsd, 9);
        // Fire 2 000 sequential 4 KiB reads as fast as completions allow;
        // the 25 K IOPS cap must bound the rate.
        let mut t = SimTime::ZERO;
        let n = 2_000u64;
        for i in 0..n {
            let (_, _, timing) = s
                .blk_request(&mut store, BlkRequestType::In, i * 8, &[], 4096, t)
                .unwrap();
            // Issue back-to-back (ignore per-op completion wait, keep the
            // limiter as the only pacing force).
            t = timing.submitted + SimDuration::from_micros(1);
        }
        // 2 000 ops minus the burst at 25 K IOPS needs ≥ ~70 ms; the
        // queueing inside the limiter pushes completions out.
        let (_, _, last) = s
            .blk_request(&mut store, BlkRequestType::In, 0, &[], 4096, t)
            .unwrap();
        assert!(
            last.completed > SimTime::from_millis(60),
            "completed {}",
            last.completed
        );
    }

    #[test]
    fn many_rounds_do_not_leak_buffers() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 4);
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            let (_, timing) = s
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, &[1, 2, 3], t)
                .unwrap();
            t = timing.completed;
            let (_, timing) = s.net_receive(b"pong", t).unwrap();
            t = timing.completed;
            let (_, _, timing) = s
                .blk_request(&mut store, BlkRequestType::In, i, &[], 512, t)
                .unwrap();
            t = timing.completed;
        }
        let (tx, rx, io) = s.counters();
        assert_eq!((tx, rx, io), (200, 200, 200));
    }

    #[test]
    fn completion_interrupts_are_acknowledged_every_op() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 5);
        let mut t = SimTime::ZERO;
        for i in 0..10_000u64 {
            let (_, timing) = s
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, &[1, 2, 3], t)
                .unwrap();
            t = timing.completed;
            if i % 100 == 0 {
                let (_, _, timing) = s
                    .blk_request(&mut store, BlkRequestType::In, i, &[], 512, t)
                    .unwrap();
                t = timing.completed;
            }
            assert!(
                !s.net_dev.msi().has_pending(),
                "net MSIs pile up by send {i}"
            );
            assert!(
                !s.blk_dev.msi().has_pending(),
                "blk MSIs pile up by send {i}"
            );
        }
        assert!(s.net_dev.msi().delivered_count() >= 10_000);
    }

    #[test]
    fn pmd_window_suppresses_every_kick_after_the_first() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::LocalSsd, 7);
        let mut t = SimTime::ZERO;
        // First op on each device kicks (fresh ring, avail_event = 0);
        // once the PMD has scanned and published its window, every
        // later post is kick-free.
        for i in 0..10u64 {
            let (_, timing) = s
                .net_send(MacAddr::for_guest(2), PacketKind::Udp, b"payload", t)
                .unwrap();
            t = timing.completed;
            let (_, _, timing) = s
                .blk_request(&mut store, BlkRequestType::In, i, &[], 512, t)
                .unwrap();
            t = timing.completed;
        }
        // 20 ops, 2 first-kicks: 18 suppressed.
        assert_eq!(s.doorbells_suppressed(), 18);
    }

    #[test]
    fn poll_faults_is_inert_without_a_plan() {
        let mut s = session();
        assert!(s.poll_faults(SimTime::from_micros(500)).unwrap().is_none());
    }

    #[test]
    fn board_power_loss_recovers_both_devices_and_replays_rx() {
        let mut s = session();
        // Prime the session: one send syncs the rings, leaving the
        // posted rx buffers inflight in the shadow ring.
        s.net_send(
            MacAddr::for_guest(2),
            PacketKind::Udp,
            b"pre",
            SimTime::ZERO,
        )
        .unwrap();

        let plan = faults::canned("board-loss").unwrap();
        faults::arm(plan, 11);
        // Before the 400 µs loss: nothing fires.
        assert!(s.poll_faults(SimTime::from_micros(100)).unwrap().is_none());
        // At 405 µs the power loss fires; recovery spans the 150 µs
        // outage plus both re-handshakes.
        let outage = s
            .poll_faults(SimTime::from_micros(405))
            .unwrap()
            .expect("power loss fires");
        assert!(outage.recovered_at >= SimTime::from_micros(405 + 150));
        // Every posted-but-unfilled rx buffer was inflight and replays.
        assert!(
            outage.replayed_chains >= 60,
            "replayed {}",
            outage.replayed_chains
        );
        // One-shot: polling again does nothing.
        assert!(s.poll_faults(outage.recovered_at).unwrap().is_none());

        // The recovered session still does real I/O through the fresh
        // epoch: the replayed rx buffers back this delivery.
        let (payload, _) = s.net_receive(b"after-reset", outage.recovered_at).unwrap();
        assert_eq!(payload, b"after-reset");
        let (egress, _) = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"post",
                outage.recovered_at,
            )
            .unwrap();
        assert_eq!(egress.payload, b"post");

        let stats = faults::disarm().expect("stats");
        assert_eq!(stats.resets.get("board").copied().unwrap_or(0), 2);
        assert!(stats.replayed.get("board").copied().unwrap_or(0) >= 60);
        assert!(stats.all_recovered());
    }

    #[test]
    fn unrecoverable_mailbox_stall_escalates_net_send() {
        let mut s = session();
        // A 5 ms stall outlasts the whole 16-attempt backoff budget
        // (worst case ≈ 1 ms): the PMD poll never goes through.
        let mut plan = faults::FaultPlan::new("mailbox-wedge");
        plan.push(faults::FaultEvent::window(
            SimTime::from_micros(100),
            FaultSite::Mailbox,
            FaultKind::MailboxStall,
            SimDuration::from_millis(5),
        ));
        faults::arm(plan, 3);
        let err = s
            .net_send(
                MacAddr::for_guest(2),
                PacketKind::Udp,
                b"wedged",
                SimTime::from_micros(200),
            )
            .unwrap_err();
        match err {
            SessionError::Escalated { site, op } => {
                assert_eq!(site, FaultSite::Mailbox);
                assert_eq!(op, "net_send");
            }
            other => panic!("expected escalation, got {other}"),
        }
        let stats = faults::disarm().expect("stats");
        assert!(!stats.all_recovered());
        assert!(stats.escalated_ops.contains_key("mailbox/head_tail"));
    }

    #[test]
    fn unrecoverable_dma_timeout_escalates_blk_request() {
        let mut s = session();
        let mut store = BlockStore::new(StorageClass::CloudSsd, 5);
        let mut plan = faults::FaultPlan::new("dma-wedge");
        plan.push(faults::FaultEvent::window(
            SimTime::from_micros(50),
            FaultSite::Dma,
            FaultKind::DmaTimeout,
            SimDuration::from_millis(8),
        ));
        faults::arm(plan, 9);
        let err = s
            .blk_request(
                &mut store,
                BlkRequestType::Out,
                4,
                &[1, 2, 3, 4],
                0,
                SimTime::from_micros(100),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Escalated {
                site: FaultSite::Dma,
                op: "blk_request",
            }
        ));
        faults::disarm();
    }

    #[test]
    fn board_recovery_is_deterministic_per_seed() {
        let run = || {
            let mut s = session();
            s.net_send(MacAddr::for_guest(2), PacketKind::Udp, b"x", SimTime::ZERO)
                .unwrap();
            faults::arm(faults::canned("board-loss").unwrap(), 23);
            let outage = s
                .poll_faults(SimTime::from_micros(410))
                .unwrap()
                .expect("fires");
            let stats = faults::disarm().expect("stats");
            (outage, stats.to_text())
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn asic_profile_lowers_latency() {
        let mut fpga = session();
        let mut asic = BmGuestSession::new(
            IoBondProfile::asic(),
            MacAddr::for_guest(1),
            64,
            InstanceLimits::unrestricted(),
        );
        let (_, t_fpga) = fpga
            .net_send(MacAddr::for_guest(2), PacketKind::Udp, b"x", SimTime::ZERO)
            .unwrap();
        let (_, t_asic) = asic
            .net_send(MacAddr::for_guest(2), PacketKind::Udp, b"x", SimTime::ZERO)
            .unwrap();
        assert!(t_asic.latency() < t_fpga.latency());
    }
}
