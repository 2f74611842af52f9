//! The cloud control-plane interface (§3.2–3.3).
//!
//! "The bm-hypervisor ... interfaces with the cloud infrastructure.
//! Because the bm-hypervisor supports the same cloud interface as the
//! vm-hypervisor, it can seamlessly integrate into the existing cloud
//! infrastructure." [`ControlPlane`] is that interface: the typed
//! request/response protocol the region scheduler speaks to every
//! server, identical whether the server hosts vm-guests or bm-guests —
//! the difference is invisible above this line.

use crate::server::{BmHiveServer, BoardId, GuestId};
use bmhive_cloud::catalog::{InstanceType, INSTANCE_CATALOG};
use bmhive_cloud::image::{ImageId, ImageService};
use bmhive_sim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A request from the cloud infrastructure to one server agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlRequest {
    /// Provision a guest: pick an idle board of the instance type, power
    /// it on with the image.
    CreateGuest {
        /// Catalog instance name (e.g. `"ebm.e5.32xlarge"`).
        instance: String,
        /// Image to boot.
        image: ImageId,
    },
    /// Tear a guest down and free its board.
    DestroyGuest {
        /// The guest.
        guest: GuestId,
    },
    /// Report a guest's status.
    QueryGuest {
        /// The guest.
        guest: GuestId,
    },
    /// Report free capacity per instance type.
    QueryCapacity,
}

/// A server agent's reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlResponse {
    /// Guest provisioned.
    Created {
        /// The new guest handle.
        guest: GuestId,
        /// Its MAC on the cloud network.
        mac: String,
        /// Boot wall time.
        boot_time: SimDuration,
    },
    /// Guest destroyed.
    Destroyed,
    /// Guest status.
    Status {
        /// Packets sent / received, block ops.
        counters: (u64, u64, u64),
        /// Whether the guest is running.
        running: bool,
    },
    /// Free board capacity by instance name.
    Capacity(Vec<(String, u32)>),
    /// The request failed.
    Error(String),
}

/// One server's control-plane agent: owns the server, a pool of
/// pre-installed boards per instance type, and the image registry
/// handle.
#[derive(Debug)]
pub struct ControlPlane {
    server: BmHiveServer,
    images: ImageService,
    /// Idle boards by instance name.
    idle_boards: HashMap<String, Vec<BoardId>>,
    /// Which board each live guest occupies (for release).
    guest_board: HashMap<GuestId, (String, BoardId)>,
}

impl ControlPlane {
    /// Wraps a server and pre-installs `boards_per_type` boards of each
    /// catalog instance that still fits.
    pub fn new(mut server: BmHiveServer, images: ImageService, boards_per_type: u32) -> Self {
        let mut idle_boards: HashMap<String, Vec<BoardId>> = HashMap::new();
        for instance in INSTANCE_CATALOG {
            for _ in 0..boards_per_type {
                match server.install_board(instance) {
                    Ok(board) => idle_boards
                        .entry(instance.name.to_string())
                        .or_default()
                        .push(board),
                    Err(_) => break,
                }
            }
        }
        ControlPlane {
            server,
            images,
            idle_boards,
            guest_board: HashMap::new(),
        }
    }

    /// The wrapped server (for workload drivers).
    pub fn server_mut(&mut self) -> &mut BmHiveServer {
        &mut self.server
    }

    fn find_instance(name: &str) -> Option<&'static InstanceType> {
        INSTANCE_CATALOG.iter().find(|i| i.name == name)
    }

    /// Handles one control request at simulated time `now`.
    pub fn handle(&mut self, request: ControlRequest, now: SimTime) -> ControlResponse {
        match request {
            ControlRequest::CreateGuest { instance, image } => {
                if Self::find_instance(&instance).is_none() {
                    return ControlResponse::Error(format!("unknown instance type '{instance}'"));
                }
                let Some(image) = self.images.get(image).cloned() else {
                    return ControlResponse::Error("unknown image".to_string());
                };
                let Some(board) = self
                    .idle_boards
                    .get_mut(&instance)
                    .and_then(|boards| boards.pop())
                else {
                    return ControlResponse::Error(format!("no idle {instance} board"));
                };
                match self.server.power_on(board, &image, now) {
                    Ok(guest) => {
                        self.guest_board.insert(guest, (instance, board));
                        let boot = self.server.boot_report(guest).expect("just booted");
                        let mac = self.server.guest_mac(guest).expect("just booted");
                        ControlResponse::Created {
                            guest,
                            mac: mac.to_string(),
                            boot_time: boot.duration,
                        }
                    }
                    Err(e) => {
                        // The board stays usable; return it to the pool.
                        self.idle_boards
                            .get_mut(&instance)
                            .expect("pool exists")
                            .push(board);
                        ControlResponse::Error(e.to_string())
                    }
                }
            }
            ControlRequest::DestroyGuest { guest } => {
                let Some((instance, board)) = self.guest_board.remove(&guest) else {
                    return ControlResponse::Error("unknown guest".to_string());
                };
                match self.server.power_off(guest) {
                    Ok(()) => {
                        self.idle_boards.entry(instance).or_default().push(board);
                        ControlResponse::Destroyed
                    }
                    Err(e) => ControlResponse::Error(e.to_string()),
                }
            }
            ControlRequest::QueryGuest { guest } => match self.server.guest_mut(guest) {
                Ok(session) => ControlResponse::Status {
                    counters: session.counters(),
                    running: true,
                },
                Err(_) => ControlResponse::Status {
                    counters: (0, 0, 0),
                    running: false,
                },
            },
            ControlRequest::QueryCapacity => {
                let mut rows: Vec<(String, u32)> = self
                    .idle_boards
                    .iter()
                    .map(|(name, boards)| (name.clone(), boards.len() as u32))
                    .collect();
                rows.sort();
                ControlResponse::Capacity(rows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_cloud::catalog::ServerConstraints;
    use bmhive_cloud::image::MachineImage;

    fn plane() -> (ControlPlane, ImageId) {
        let server = BmHiveServer::new(ServerConstraints::production(), 42);
        let mut images = ImageService::new();
        let image = images.register(MachineImage::centos_evaluation(1));
        (ControlPlane::new(server, images, 2), image)
    }

    #[test]
    fn create_query_destroy_round_trip() {
        let (mut plane, image) = plane();
        let response = plane.handle(
            ControlRequest::CreateGuest {
                instance: "ebm.e5.32xlarge".to_string(),
                image,
            },
            SimTime::ZERO,
        );
        let ControlResponse::Created {
            guest,
            mac,
            boot_time,
        } = response
        else {
            panic!("expected Created, got {response:?}");
        };
        assert!(mac.starts_with("52:54:"));
        assert!(boot_time > SimDuration::ZERO);

        let status = plane.handle(ControlRequest::QueryGuest { guest }, SimTime::from_secs(1));
        assert!(matches!(
            status,
            ControlResponse::Status { running: true, .. }
        ));

        assert_eq!(
            plane.handle(
                ControlRequest::DestroyGuest { guest },
                SimTime::from_secs(2)
            ),
            ControlResponse::Destroyed
        );
        let status = plane.handle(ControlRequest::QueryGuest { guest }, SimTime::from_secs(3));
        assert!(matches!(
            status,
            ControlResponse::Status { running: false, .. }
        ));
    }

    #[test]
    fn capacity_tracks_allocations() {
        let (mut plane, image) = plane();
        let before = plane.handle(ControlRequest::QueryCapacity, SimTime::ZERO);
        let ControlResponse::Capacity(rows) = before else {
            panic!()
        };
        let e5_before = rows.iter().find(|(n, _)| n == "ebm.e5.32xlarge").unwrap().1;
        let ControlResponse::Created { guest, .. } = plane.handle(
            ControlRequest::CreateGuest {
                instance: "ebm.e5.32xlarge".to_string(),
                image,
            },
            SimTime::ZERO,
        ) else {
            panic!()
        };
        let ControlResponse::Capacity(rows) =
            plane.handle(ControlRequest::QueryCapacity, SimTime::ZERO)
        else {
            panic!()
        };
        let e5_after = rows.iter().find(|(n, _)| n == "ebm.e5.32xlarge").unwrap().1;
        assert_eq!(e5_after, e5_before - 1);
        plane.handle(ControlRequest::DestroyGuest { guest }, SimTime::ZERO);
        let ControlResponse::Capacity(rows) =
            plane.handle(ControlRequest::QueryCapacity, SimTime::ZERO)
        else {
            panic!()
        };
        assert_eq!(
            rows.iter().find(|(n, _)| n == "ebm.e5.32xlarge").unwrap().1,
            e5_before
        );
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let (mut plane, image) = plane();
        assert!(matches!(
            plane.handle(
                ControlRequest::CreateGuest {
                    instance: "ebm.unobtanium".to_string(),
                    image
                },
                SimTime::ZERO
            ),
            ControlResponse::Error(_)
        ));
        assert!(matches!(
            plane.handle(
                ControlRequest::CreateGuest {
                    instance: "ebm.e5.32xlarge".to_string(),
                    image: bmhive_cloud::image::ImageId(999)
                },
                SimTime::ZERO
            ),
            ControlResponse::Error(_)
        ));
        assert!(matches!(
            plane.handle(
                ControlRequest::DestroyGuest { guest: GuestId(77) },
                SimTime::ZERO
            ),
            ControlResponse::Error(_)
        ));
    }

    #[test]
    fn pool_exhaustion_reports_no_idle_board() {
        let (mut plane, image) = plane();
        // Two pre-installed E5 boards.
        for _ in 0..2 {
            assert!(matches!(
                plane.handle(
                    ControlRequest::CreateGuest {
                        instance: "ebm.e5.32xlarge".to_string(),
                        image
                    },
                    SimTime::ZERO
                ),
                ControlResponse::Created { .. }
            ));
        }
        assert!(matches!(
            plane.handle(
                ControlRequest::CreateGuest {
                    instance: "ebm.e5.32xlarge".to_string(),
                    image
                },
                SimTime::ZERO
            ),
            ControlResponse::Error(_)
        ));
    }
}
