//! The deployment every workload runs against, and the end-of-run
//! consistency checks over it.
//!
//! dc01 is an emulated k=16 fat-tree (320 switches, 2,048 links) behind
//! the device emulator; dc02–dc16 are database-only production pods
//! (15 × 96 × 92 = 132,480 devices). Every device carries a `SITE`
//! attribute that no workflow writes, so a failed compliance audit of it
//! is always a real fault.

use crate::trace::{TimedService, Tracer};
use occam::cert::Certifier;
use occam::core::RetryPolicy;
use occam::emunet::{DeviceService, EmuService, FlowClass};
use occam::gateway::{Engine, EngineConfig, GatewayServer};
use occam::netdb::{attrs, check_identical, ReplicaConfig, ReplicaSet, WriteOp};
use occam::regex::Pattern;
use occam::topology::FatTree;
use occam::Runtime;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fat-tree arity of the emulated dc01.
pub const FABRIC_K: u32 = 16;
/// Datacenters in the deployment (dc01 emulated, the rest DB-only).
pub const DCS: u32 = 16;
/// Pods per DB-only datacenter.
pub const DB_PODS: u32 = 96;
/// Switches per DB-only pod.
pub const DB_POD_SWITCHES: u32 = 92;
/// Emulated dc01 pods.
pub const FABRIC_PODS: u32 = FABRIC_K;
/// The invariant attribute seeded on every device.
pub const SITE: &str = "SITE";
/// Cross-pod background flows installed in dc01 so that update synthesis
/// has forwarding invariants to preserve.
const FLOWS: usize = 16;

/// What a workload asks of the deployment beyond the common part.
#[derive(Clone, Copy, Default)]
pub struct Options {
    /// Start one follower replica and route reads through it.
    pub follower: bool,
    /// Attach the online serializability certifier.
    pub certifier: bool,
    /// Engine retry budget (attempts); 1 means no retry.
    pub attempts: u32,
}

/// A running deployment: gateway, runtime, and the optional replica set.
pub struct Deployment {
    pub server: GatewayServer,
    pub runtime: Runtime,
    pub fabric: FatTree,
    pub service: Arc<TimedService>,
    pub replicas: Option<ReplicaSet>,
    pub devices: u64,
}

/// The site value seeded on every device of datacenter `dc`.
pub fn site_of(dc: u32) -> String {
    format!("site-dc{dc:02}")
}

/// Builds and seeds the whole deployment and starts the gateway on an
/// ephemeral localhost port.
pub fn build(opts: Options, tracer: &Arc<Tracer>) -> Deployment {
    let (base, fabric) = occam::emulated_deployment(1, FABRIC_K);
    let db = Arc::clone(base.db());
    let registry = base.obs().clone();

    // dc01: tag the emulated switches with their site.
    let site01 = site_of(1);
    let tags: Vec<WriteOp> = db
        .select_devices(&Pattern::universe())
        .expect("select dc01 switches")
        .into_iter()
        .map(|name| WriteOp::SetDeviceAttr {
            name,
            attr: SITE.into(),
            value: site01.as_str().into(),
        })
        .collect();
    db.batch(&tags).expect("tag dc01 sites");

    // dc02..dc16: DB-only production pods, one batch per pod.
    let mut devices = tags.len() as u64;
    for dc in 2..=DCS {
        let site = site_of(dc);
        for pod in 0..DB_PODS {
            let batch: Vec<WriteOp> = (0..DB_POD_SWITCHES)
                .map(|sw| WriteOp::InsertDevice {
                    name: format!("dc{dc:02}.pod{pod:02}.sw{sw:02}"),
                    attrs: vec![
                        (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                        (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
                        (SITE.into(), site.as_str().into()),
                    ],
                })
                .collect();
            devices += batch.len() as u64;
            db.batch(&batch).expect("seed production pod");
        }
    }

    // Cross-pod flows through dc01, fixed for every workload.
    let emu = base
        .service()
        .as_any()
        .downcast_ref::<EmuService>()
        .expect("emulated deployment runs over EmuService");
    {
        let net = emu.net();
        let mut net = net.lock();
        for i in 0..FLOWS {
            let pod = i % FABRIC_PODS as usize;
            let peer = (pod + 1 + i / FABRIC_PODS as usize) % FABRIC_PODS as usize;
            let src = fabric.hosts[pod][i % fabric.hosts[pod].len()][0];
            let dst = fabric.hosts[peer][(i + 1) % fabric.hosts[peer].len()][0];
            net.add_flow(src, dst, 10.0, FlowClass::Background);
        }
    }

    // The runtime the gateway serves: the same database and registry,
    // over the timing decorator.
    let service = Arc::new(TimedService::new(
        Arc::clone(base.service()),
        Arc::clone(tracer),
    ));
    let runtime = Runtime::with_obs(
        db,
        Arc::clone(&service) as Arc<dyn DeviceService>,
        occam::sched::Policy::Ldsf,
        &registry,
    );
    drop(base);

    let replicas = opts.follower.then(|| {
        let set = ReplicaSet::start(
            Arc::clone(runtime.db()),
            ReplicaConfig {
                followers: 1,
                ..ReplicaConfig::default()
            },
        );
        assert!(
            set.wait_converged(Duration::from_secs(60)),
            "follower bootstrap did not converge"
        );
        runtime.attach_read_router(set.router());
        set
    });
    if opts.certifier {
        runtime.attach_certifier(Arc::new(Certifier::with_obs(&registry)));
    }

    let cfg = EngineConfig {
        retry: if opts.attempts > 1 {
            RetryPolicy::attempts(opts.attempts)
        } else {
            RetryPolicy::none()
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(runtime.clone(), cfg);
    let server = GatewayServer::start(engine, "127.0.0.1:0").expect("bind gateway");
    Deployment {
        server,
        runtime,
        fabric,
        service,
        replicas,
        devices,
    }
}

impl Deployment {
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// The emulator behind the decorator.
    pub fn emu(&self) -> &EmuService {
        occam::emu_service(&self.runtime)
    }

    /// Stops the gateway (draining the engine) and the replica shipper.
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.runtime.detach_read_router();
        if let Some(set) = self.replicas.take() {
            set.shutdown();
        }
    }

    /// The netdb and the emulator agree on every dc01 switch's drain
    /// state and firmware. Returns one line per disagreement.
    pub fn check_fabric_agreement(&self) -> Vec<String> {
        let snap = self.runtime.db().snapshot();
        let scope = Pattern::from_glob("dc01.*").expect("dc01 glob");
        let status = snap.get_attr(&scope, attrs::DEVICE_STATUS);
        let firmware = snap.get_attr(&scope, attrs::FIRMWARE_VERSION);
        let net = self.emu().net();
        let net = net.lock();
        let mut faults = Vec::new();
        let mut switches = 0usize;
        for (name, st) in &status {
            let Some(id) = net.device_by_name(name) else {
                faults.push(format!("{name}: in netdb but not in the emulator"));
                continue;
            };
            let Some(sw) = net.switch(id) else { continue };
            switches += 1;
            let db_drained = matches!(
                st.as_str(),
                Some(attrs::STATUS_DRAINED) | Some(attrs::STATUS_UNDER_MAINTENANCE)
            );
            if db_drained != sw.drained {
                faults.push(format!(
                    "{name}: netdb status {:?} but emulator drained={}",
                    st.as_str(),
                    sw.drained
                ));
            }
            let db_fw = firmware.get(name).and_then(|v| v.as_str());
            if db_fw != Some(sw.firmware.as_str()) {
                faults.push(format!(
                    "{name}: netdb firmware {db_fw:?} but emulator {:?}",
                    sw.firmware
                ));
            }
        }
        if switches != self.fabric.all_switches().len() {
            faults.push(format!(
                "netdb holds {switches} dc01 switches, fabric has {}",
                self.fabric.all_switches().len()
            ));
        }
        faults
    }

    /// The follower is byte-identical to the leader once converged.
    ///
    /// Converged means the two published snapshots hold the same number
    /// of commits. `ReplicaSet::wait_converged` is not enough: it counts
    /// commits in the follower's WAL, and a follower appends a commit to
    /// its WAL before it publishes the snapshot that holds it.
    pub fn check_follower(&self) -> Result<(), String> {
        let Some(set) = &self.replicas else {
            return Ok(());
        };
        let follower = &set.followers()[0];
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let leader = self.runtime.db().snapshot();
            let replica = follower.snapshot();
            if replica.commits() == leader.commits() {
                return check_identical(&leader, &replica);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "follower at commit {} did not reach the leader's {} within 30 s",
                    replica.commits(),
                    leader.commits()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Every device's `SITE` is still the value seeded for its DC.
    pub fn check_sites(&self) -> Result<(), String> {
        let snap = self.runtime.db().snapshot();
        let sites = snap.get_attr(&Pattern::universe(), SITE);
        if sites.len() as u64 != self.devices {
            return Err(format!(
                "{} devices carry {SITE}, {} seeded",
                sites.len(),
                self.devices
            ));
        }
        for (name, v) in &sites {
            let dc: u32 = name[2..4].parse().map_err(|_| format!("bad name {name}"))?;
            if v.as_str() != Some(site_of(dc).as_str()) {
                return Err(format!("{name}: {SITE} = {:?}", v.as_str()));
            }
        }
        Ok(())
    }
}
