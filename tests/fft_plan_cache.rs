//! Pins the process-wide FFT plan cache: once a server has run one batch
//! through the matched-filter FB path, later batches build no twiddle
//! tables at all — whichever worker thread each copy lands on, and however
//! many batches follow.
//!
//! One test per file: `dsp_fft_plans_total` is a process-global counter,
//! so no other test may share this process.

use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::{FleetDeployment, HonestChannel, Scenario, UplinkDeliveries};
use softlora_repro::softlora::network_server::NetworkServerBuilder;
use softlora_repro::softlora::SoftLoraConfig;
use softlora_repro::telemetry::global;

const GATEWAYS: usize = 3;
const DEVICES: usize = 4;
const BATCH: usize = 4;

fn plans_built() -> u64 {
    global().snapshot().counter_sum("dsp_fft_plans_total")
}

#[test]
fn warm_server_builds_no_fft_plans() {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let fleet = FleetDeployment::with_gateways(GATEWAYS);
    let mut scenario = Scenario::new_fleet_sites(
        phy,
        fleet.medium(),
        fleet.gateway_sites(),
        Box::new(HonestChannel),
    );
    for (k, pos) in fleet.device_positions(DEVICES, 21).iter().enumerate() {
        scenario.add_device(0x2601_7000 + k as u32, *pos, 300.0, k as u64);
    }
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario.run(3000.0, |u| groups.push(u.clone()));
    assert!(groups.len() > 4 * BATCH, "scenario must produce several batches");

    // Every analysed copy takes the matched filter (its 32k-point plan is
    // the expensive one), whatever its SNR.
    let mut config = SoftLoraConfig::new(phy);
    config.ls_below_snr_db = f64::INFINITY;
    config.adc_quantisation = false;
    let mut builder = NetworkServerBuilder::from_config(config).warmup_frames(2);
    for g in 0..GATEWAYS {
        builder = builder.gateway(g as u64 + 1);
    }
    for k in 0..DEVICES {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    let mut server = builder.build();

    let cold = plans_built();
    server.process_batch(&groups[..BATCH]).expect("warm batch");
    let warm = plans_built();
    assert!(warm > cold, "the warm batch must run the FFT paths");

    for batch in groups[BATCH..].chunks(BATCH) {
        server.process_batch(batch).expect("batch");
    }
    assert_eq!(plans_built(), warm, "a warm server must reuse the cached FFT plans");
}
