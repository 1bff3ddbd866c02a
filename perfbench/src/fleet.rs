//! Scenario generation. Every workload's input is a group stream that
//! `softlora-sim` and `softlora-attack` produce from the workload seed
//! before any timing starts; the program under test only ever receives
//! the generated groups (or datagrams built from them).

use softlora::network_server::NetworkServerBuilder;
use softlora::NetworkServer;
use softlora_attack::FrameDelayAttack;
use softlora_lorawan::DeviceKeys;
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{FleetDeployment, HonestChannel, Position, Scenario, UplinkDeliveries};

/// The fleet medium's default site noise floor, dBm.
const DEFAULT_FLOOR_DBM: f64 = -117.0;
/// Reporting period of every meter, seconds.
const PERIOD_S: f64 = 300.0;
/// Address of device 0; the meters are numbered from here.
const DEV_BASE: u32 = 0x2603_7000;
/// The fleet geometry is fixed (the load generator's placement seed);
/// the workload seed varies everything else: device oscillators and
/// traffic phases, channel noise and the attack chain.
const POSITIONS_SEED: u64 = 21;
/// Server shard count on every workload (the host has 2 CPUs).
pub const SHARDS: usize = 2;

pub fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The shape of a simulated fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub gateways: usize,
    /// Gateways `0..loud` keep the default noise floor; the others sit
    /// 60 dB higher, so their copies fail the radio stage cheaply.
    pub loud: usize,
    pub devices: usize,
    /// The frame-delay attack targets this many devices: the ones nearest
    /// the eavesdropper, which sits beside device 0.
    pub attacked: usize,
}

/// A generated group stream plus the device keys every server that
/// processes it must be provisioned with.
pub struct Fleet {
    pub shape: FleetShape,
    pub groups: Vec<UplinkDeliveries>,
    keys: Vec<(u32, DeviceKeys)>,
}

impl Fleet {
    /// Simulates `shape` from `seed` until the stream holds at least
    /// `min_groups` uplink groups. The attack starts after five
    /// reporting periods, so early uplinks train the FB history.
    pub fn generate(shape: FleetShape, seed: u64, min_groups: usize) -> Fleet {
        let floors: Vec<f64> = (0..shape.gateways)
            .map(|g| if g < shape.loud { DEFAULT_FLOOR_DBM } else { DEFAULT_FLOOR_DBM + 60.0 })
            .collect();
        let fleet =
            FleetDeployment::with_gateways(shape.gateways).with_site_noise_floors_dbm(floors);
        let gateways = fleet.gateway_positions();
        let mut scenario = Scenario::new_fleet_sites(
            phy(),
            fleet.medium(),
            fleet.gateway_sites(),
            Box::new(HonestChannel),
        );
        let positions = fleet.device_positions(shape.devices, POSITIONS_SEED);
        for (k, pos) in positions.iter().enumerate() {
            scenario.add_device(DEV_BASE + k as u32, *pos, PERIOD_S, seed ^ ((k as u64) << 20));
        }
        // Uplinks arrive at devices / PERIOD_S per simulated second.
        let sim_s = (min_groups as f64 + shape.devices as f64) * PERIOD_S / shape.devices as f64;
        if shape.attacked > 0 {
            let target = positions[0];
            let attack = FrameDelayAttack::near_gateway(
                Position::new(target.x + 2.0, target.y + 1.0, target.z),
                &gateways,
                0,
                2.0,
                40.0,
                phy(),
                seed ^ 0xA77A_C4ED,
            )
            .with_targets(nearest(&positions, shape.attacked));
            scenario.schedule_interceptor(5.0 * PERIOD_S, Box::new(attack));
        }
        let keys = (0..scenario.devices())
            .map(|k| {
                let cfg = scenario.device_config(k);
                (cfg.dev_addr, cfg.keys.clone())
            })
            .collect();
        let mut groups = Vec::with_capacity(min_groups + shape.devices);
        scenario.run(sim_s, |u| groups.push(u.clone()));
        assert!(
            groups.len() >= min_groups,
            "simulated {} groups, wanted {min_groups}",
            groups.len()
        );
        Fleet { shape, groups, keys }
    }

    /// The server configuration for this fleet, ready to build: one
    /// gateway per site, every device provisioned, [`SHARDS`] shards.
    pub fn server(&self) -> NetworkServerBuilder {
        let mut server =
            NetworkServer::builder(phy()).adc_quantisation(false).warmup_frames(2).shards(SHARDS);
        for g in 0..self.shape.gateways {
            server = server.gateway(g as u64 + 1);
        }
        for (dev_addr, keys) in &self.keys {
            server = server.provision(*dev_addr, keys.clone());
        }
        server
    }
}

/// Addresses of the `n` devices nearest device 0 (device 0 included).
fn nearest(positions: &[Position], n: usize) -> Vec<u32> {
    let d2 = |p: &Position| (p.x - positions[0].x).powi(2) + (p.y - positions[0].y).powi(2);
    let mut order: Vec<usize> = (0..positions.len()).collect();
    order.sort_by(|&a, &b| d2(&positions[a]).total_cmp(&d2(&positions[b])));
    order.into_iter().take(n).map(|k| DEV_BASE + k as u32).collect()
}

/// Whether any copy of the group is a replay (simulator ground truth).
pub fn is_replay(group: &UplinkDeliveries) -> bool {
    group.copies.iter().any(|c| c.delivery.is_replay)
}
