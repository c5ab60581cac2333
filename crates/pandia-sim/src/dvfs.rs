//! DVFS: applying the Turbo Boost operating point to resource capacities.
//!
//! Core-clocked capacities (instruction issue, private L1/L2 links) scale
//! with the chip's current frequency, which in turn depends on how many of
//! the chip's cores are active (paper §6.3, Figure 14). Uncore capacities
//! (shared L3, DRAM, interconnect) do not change.

use pandia_topology::MachineSpec;

/// The frequency operating point of each socket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DvfsState {
    /// Current frequency of each socket in GHz.
    pub socket_ghz: Vec<f64>,
    /// `socket_ghz / nominal_ghz` per socket, the multiplier for
    /// core-clocked capacities and intrinsic thread speed.
    pub socket_scale: Vec<f64>,
}

impl DvfsState {
    /// Computes the operating point from the number of active cores per
    /// socket, in place: the buffers are reused across calls.
    ///
    /// `fill_background` models the paper's profiling methodology of
    /// filling otherwise-idle cores with a core-local background load: when
    /// set, every socket runs at its all-core frequency regardless of
    /// occupancy.
    pub fn compute_into(
        &mut self,
        spec: &MachineSpec,
        active_cores_per_socket: &[usize],
        turbo: bool,
        fill_background: bool,
    ) {
        self.socket_ghz.clear();
        self.socket_ghz.extend((0..spec.sockets).map(|s| {
            let active = if fill_background {
                spec.cores_per_socket
            } else {
                active_cores_per_socket.get(s).copied().unwrap_or(0).max(1)
            };
            spec.turbo.frequency_ghz(active, spec.cores_per_socket, turbo)
        }));
        self.socket_scale.clear();
        self.socket_scale.extend(self.socket_ghz.iter().map(|g| g / spec.turbo.nominal_ghz));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::MachineSpec;

    fn point(spec: &MachineSpec, active: &[usize], turbo: bool, fill: bool) -> DvfsState {
        let mut state = DvfsState::default();
        state.compute_into(spec, active, turbo, fill);
        state
    }

    #[test]
    fn single_active_core_boosts_highest() {
        let spec = MachineSpec::x5_2();
        let lone = point(&spec, &[1, 0], true, false);
        let busy = point(&spec, &[18, 18], true, false);
        assert!(lone.socket_ghz[0] > busy.socket_ghz[0]);
        assert_eq!(lone.socket_ghz[0], 3.6);
        assert_eq!(busy.socket_ghz[0], 2.8);
    }

    #[test]
    fn fill_background_pins_all_core_frequency() {
        let spec = MachineSpec::x5_2();
        let filled = point(&spec, &[1, 0], true, true);
        assert_eq!(filled.socket_ghz, vec![2.8, 2.8]);
    }

    #[test]
    fn disabled_turbo_runs_at_nominal() {
        let spec = MachineSpec::x5_2();
        let state = point(&spec, &[1, 0], false, false);
        assert_eq!(state.socket_ghz, vec![2.3, 2.3]);
        assert_eq!(state.socket_scale, vec![1.0, 1.0]);
    }

    #[test]
    fn sockets_boost_independently() {
        let spec = MachineSpec::x5_2();
        let state = point(&spec, &[18, 1], true, false);
        assert!(state.socket_ghz[1] > state.socket_ghz[0]);
        assert!(state.socket_scale[1] > state.socket_scale[0]);
    }

    #[test]
    fn empty_socket_defaults_to_single_core_point() {
        let spec = MachineSpec::x3_2();
        let state = point(&spec, &[0, 0], true, false);
        // An idle socket's frequency is irrelevant; it just must be finite.
        assert!(state.socket_ghz.iter().all(|g| g.is_finite() && *g > 0.0));
    }

    #[test]
    fn recomputing_in_place_matches_a_fresh_state() {
        // The engine reuses one state for a whole run: a recompute must
        // leave nothing of the previous operating point behind, even
        // across machines with different socket counts.
        let mut state = point(&MachineSpec::x2_4(), &[3, 0, 1, 2], true, false);
        let spec = MachineSpec::x5_2();
        state.compute_into(&spec, &[18, 1], true, false);
        assert_eq!(state, point(&spec, &[18, 1], true, false));
    }
}
