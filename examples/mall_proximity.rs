//! Proximity services in a shopping mall — the ProSe use-case the
//! paper's introduction motivates.
//!
//! Shoppers cluster around store fronts (clustered deployment). Each
//! device advertises a service interest (food court, electronics,
//! fashion, cinema). The ST protocol discovers neighbours and services
//! *simultaneously* with synchronization; afterwards every device knows
//! which nearby devices share its interest, plus an RSSI distance
//! estimate to each — everything an app needs to suggest "people near
//! you who also want X".
//!
//! ```text
//! cargo run --release --example mall_proximity
//! ```

use ffd2d::core::device::{CouplingMode, Device};
use ffd2d::core::{ScenarioConfig, World};
use ffd2d::phy::codec::ServiceClass;
use ffd2d::radio::rssi::RangingEstimate;
use ffd2d::radio::units::Dbm;
use ffd2d::sim::deployment::{Deployment, Meters};
use ffd2d::sim::rng::{StreamId, StreamRng};
use ffd2d::sim::time::Slot;

const SERVICES: [&str; 4] = ["food court", "electronics", "fashion", "cinema"];

fn main() {
    // A 120 m × 80 m mall floor with 4 store clusters of shoppers.
    let mut cfg = ScenarioConfig::table1(60).seeded(7);
    cfg.sim.area_width = Meters(120.0);
    cfg.sim.area_height = Meters(80.0);
    cfg.protocol.service_classes = 4;

    let mut rng = StreamRng::new(cfg.sim.seed, 0, StreamId::Deployment);
    let deployment = Deployment::clustered(
        cfg.sim.n_devices,
        4,
        Meters(8.0),
        cfg.sim.area_width,
        cfg.sim.area_height,
        &mut rng,
    );
    // Build the world for the channel/services, then overlay the mall
    // deployment through the lower-level pieces: this example drives
    // the discovery layer directly to show the per-device API.
    let world = World::new(&cfg);

    // Simulate a discovery pass by hand: every device beacons once and
    // all audible peers record it (the protocol engines automate this;
    // here the per-call API is the point).
    let n = deployment.len();
    let mut devices: Vec<Device> = (0..n as u32)
        .map(|id| {
            Device::new(
                id,
                n,
                (id as f64) / n as f64,
                100,
                5,
                world.services()[id as usize],
            )
        })
        .collect();
    let channel =
        ffd2d::radio::channel::Channel::new(deployment.clone(), cfg.channel.clone(), cfg.sim.seed);
    for tx in 0..n as u32 {
        for rx in 0..n as u32 {
            if tx == rx {
                continue;
            }
            let rx_power = channel.rx_power(tx, rx, Slot(tx as u64));
            if rx_power >= channel.config().detection_threshold {
                devices[rx as usize]
                    .table
                    .observe_fire(tx, rx_power, tx, Slot(tx as u64));
            }
        }
    }
    for d in devices.iter_mut() {
        d.coupling = CouplingMode::Isolated;
    }

    // Report what three shoppers can see.
    for &id in &[0u32, 20, 40] {
        let me = &devices[id as usize];
        let mine = me.service;
        let matches: Vec<u32> = me.table.service_matches(mine, world.services()).collect();
        println!(
            "shopper {id} (interested in {}) discovered {} peers, {} sharing the interest:",
            SERVICES[mine.0 as usize],
            me.table.discovered(),
            matches.len()
        );
        // Ranging is derived from the stored PS strength on demand.
        let mut nearest: Vec<(u32, f64, f64)> = matches
            .iter()
            .filter_map(|&m| {
                me.table.get(m).map(|info| {
                    let est = RangingEstimate::from_rx(
                        cfg.channel.tx_power,
                        Dbm(info.weight_dbm),
                        &cfg.channel.pathloss,
                    );
                    (m, est.distance.0, deployment.distance(id, m).0)
                })
            })
            .collect();
        nearest.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (peer, est, actual) in nearest.into_iter().take(3) {
            println!("    peer {peer}: RSSI-estimated {est:.1} m away (actually {actual:.1} m)");
        }
    }
    let _ = ServiceClass::KEEP_ALIVE; // (documents the keep-alive class)
}
