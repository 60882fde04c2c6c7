//! Scoped stage spans with dual clocks.
//!
//! A [`StageSpan`] measures one pipeline stage under two clocks at once:
//! the **simulated** clock (microseconds of virtual time the stage
//! advanced the network by — deterministic, [`Class::Sim`]) and the
//! **wall** clock (host time the stage took — perf-only, [`Class::Wall`]).
//! The two never mix: the sim duration lands in `stage_<name>_sim_us`, the
//! wall duration in `stage_<name>_wall_us`, and only the former
//! participates in the deterministic snapshot hash.
//!
//! Spans are explicit-finish rather than drop-guards: the caller must hand
//! the current sim timestamp to [`StageSpan::finish`], and an implicit
//! finish-on-drop could only guess at it.

use crate::metrics::Class;
use crate::Obs;
use std::time::Instant;

/// An in-flight stage measurement. Created by [`Obs::span`], closed by
/// [`StageSpan::finish`].
#[derive(Debug)]
#[must_use = "a span only records when finished"]
pub struct StageSpan {
    name: &'static str,
    sim_start_us: u64,
    wall_start: Instant,
}

impl StageSpan {
    pub(crate) fn new(name: &'static str, sim_now_us: u64) -> Self {
        StageSpan {
            name,
            sim_start_us: sim_now_us,
            wall_start: Instant::now(),
        }
    }

    /// Close the span: record sim and wall durations into `obs`'s registry
    /// and append a span event to its sink. `sim_now_us` is the simulated
    /// clock at stage exit; stages that never advance the simulated clock
    /// pass the same value they started with and record a zero sim
    /// duration — deterministically, on every execution path.
    pub fn finish(self, obs: &Obs, sim_now_us: u64) {
        let sim_us = sim_now_us.saturating_sub(self.sim_start_us);
        let wall_us = self.wall_start.elapsed().as_micros() as u64;
        let reg = obs.registry();
        reg.add(&format!("stage_{}_sim_us", self.name), Class::Sim, sim_us);
        reg.add(
            &format!("stage_{}_wall_us", self.name),
            Class::Wall,
            wall_us,
        );
        reg.add(&format!("stage_{}_runs", self.name), Class::Sim, 1);
        obs.sink().push(
            Some(sim_now_us),
            "span",
            self.name,
            format!("sim_us={sim_us} wall_us={wall_us}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_both_clocks_segregated() {
        let obs = Obs::new();
        let span = obs.span("collect", 1_000);
        span.finish(&obs, 3_500);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("stage_collect_sim_us"), Some(2_500));
        assert_eq!(snap.counter("stage_collect_runs"), Some(1));
        // The wall counter exists but is Wall-class: present in the
        // snapshot, absent from the deterministic hash.
        let wall = snap.get("stage_collect_wall_us").unwrap();
        assert_eq!(wall.class, Class::Wall);
        assert!(snap
            .sim_only()
            .iter()
            .all(|m| m.name != "stage_collect_wall_us"));
        // And the sink saw the boundary event.
        let ev = obs.sink().events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, "span");
        assert_eq!(ev[0].name, "collect");
    }

    #[test]
    fn zero_sim_advance_is_exact() {
        let obs = Obs::new();
        obs.span("classify", 777).finish(&obs, 777);
        assert_eq!(
            obs.registry().counter_value("stage_classify_sim_us"),
            Some(0)
        );
    }
}
