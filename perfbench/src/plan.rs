//! The serve replay's tenant plan: which tenant each frame goes to, which
//! adversary scenario it replays, and which connection sends it.
//!
//! Tenant popularity is Zipf-skewed, so a few tenants stay hot while the
//! tail keeps being evicted and restored. The stock `repro load` plan
//! cycles through tenants in a fixed order, which turns almost every
//! frame into a restore once there are more tenants than live slots.
//! Each tenant belongs to one connection (`tenant % connections`), so a
//! closed-loop connection keeps that tenant's frames in plan order.

use rsc_serve::load::{PlannedFrame, STORM_MIX};
use rsc_trace::rng::Xoshiro256;

/// The plan's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Distinct tenants.
    pub tenants: u64,
    /// Client connections.
    pub connections: usize,
    /// Frames in the whole plan.
    pub frames: usize,
    /// Events per frame.
    pub events_per_frame: u64,
    /// Zipf exponent of tenant popularity (rank `r` has weight `r^-s`).
    pub zipf_s: f64,
    /// Root seed.
    pub seed: u64,
}

/// RNG stream of the plan, apart from `repro load`'s per-client streams.
const PLAN_STREAM: u64 = 0x5e4e_5ca1;

/// The whole plan in send order. A pure function of `cfg`.
pub fn plan(cfg: &PlanConfig) -> Vec<PlannedFrame> {
    let mut rng = Xoshiro256::seed_from(cfg.seed).fork(PLAN_STREAM);
    let mut cdf: Vec<f64> = Vec::with_capacity(cfg.tenants as usize);
    let mut acc = 0.0;
    for rank in 1..=cfg.tenants {
        acc += (rank as f64).powf(-cfg.zipf_s);
        cdf.push(acc);
    }
    (0..cfg.frames)
        .map(|_| {
            let u = rng.next_f64() * acc;
            let tenant = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64;
            let scenario = STORM_MIX[(rng.next_u64() % STORM_MIX.len() as u64) as usize];
            PlannedFrame {
                tenant,
                scenario,
                trace_seed: rng.next_u64(),
                events: cfg.events_per_frame,
            }
        })
        .collect()
}

/// Splits a plan among connections by tenant, keeping plan order within
/// each connection.
pub fn per_connection(plan: &[PlannedFrame], connections: usize) -> Vec<Vec<PlannedFrame>> {
    let mut out = vec![Vec::new(); connections.max(1)];
    for f in plan {
        out[(f.tenant % connections.max(1) as u64) as usize].push(f.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> PlanConfig {
        PlanConfig {
            tenants: 32,
            connections: 2,
            frames: 600,
            events_per_frame: 50,
            zipf_s: 1.0,
            seed,
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_its_config() {
        assert_eq!(plan(&cfg(7)), plan(&cfg(7)));
        assert_ne!(plan(&cfg(7)), plan(&cfg(8)));
        let p = plan(&cfg(7));
        assert_eq!(p.len(), 600);
        assert!(p.iter().all(|f| f.tenant < 32 && f.events == 50));
    }

    #[test]
    fn popularity_is_skewed_but_reaches_the_tail() {
        let p = plan(&PlanConfig {
            frames: 20_000,
            ..cfg(3)
        });
        let mut counts = [0usize; 32];
        for f in &p {
            counts[f.tenant as usize] += 1;
        }
        assert!(counts[0] > 4 * counts[31], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn connections_own_tenants_and_keep_their_order() {
        let p = plan(&cfg(11));
        let conns = per_connection(&p, 2);
        assert_eq!(conns.iter().map(Vec::len).sum::<usize>(), p.len());
        for (c, frames) in conns.iter().enumerate() {
            assert!(frames.iter().all(|f| f.tenant % 2 == c as u64));
        }
        for tenant in 0..32 {
            let global: Vec<_> = p.iter().filter(|f| f.tenant == tenant).collect();
            let conn = &conns[(tenant % 2) as usize];
            let local: Vec<_> = conn.iter().filter(|f| f.tenant == tenant).collect();
            assert_eq!(global, local, "tenant {tenant} reordered");
        }
    }
}
