// Umbrella header: the whole mmtag-sim public API in one include.
//
// Fine for applications and examples; library code should include the
// specific headers it uses (faster builds, clearer dependencies).
#pragma once

// Physical substrate.
#include "src/phys/constants.hpp"
#include "src/phys/link_budget.hpp"
#include "src/phys/noise.hpp"
#include "src/phys/pathloss.hpp"
#include "src/phys/units.hpp"

// Circuit-level EM substrate.
#include "src/em/impedance.hpp"
#include "src/em/matching.hpp"
#include "src/em/patch_element.hpp"
#include "src/em/resonator.hpp"
#include "src/em/switch_model.hpp"
#include "src/em/transmission_line.hpp"

// Antennas and beams.
#include "src/antenna/codebook.hpp"
#include "src/antenna/mutual_coupling.hpp"
#include "src/antenna/pattern.hpp"
#include "src/antenna/phased_array.hpp"
#include "src/antenna/ula.hpp"

// Channel.
#include "src/channel/environment.hpp"
#include "src/channel/geometry.hpp"
#include "src/channel/mobility.hpp"
#include "src/channel/doppler.hpp"
#include "src/channel/multipath.hpp"
#include "src/channel/propagation.hpp"
#include "src/channel/raytrace.hpp"

// The paper's core: tag, array, energy.
#include "src/core/energy.hpp"
#include "src/core/harvester.hpp"
#include "src/core/tag.hpp"
#include "src/core/van_atta.hpp"

// PHY.
#include "src/phy/ber.hpp"
#include "src/phy/crc.hpp"
#include "src/phy/fm0.hpp"
#include "src/phy/fft.hpp"
#include "src/phy/frame.hpp"
#include "src/phy/line_code.hpp"
#include "src/phy/modulation.hpp"
#include "src/phy/ook.hpp"
#include "src/phy/pulse.hpp"
#include "src/phy/rate_adaptation.hpp"
#include "src/phy/rate_table.hpp"
#include "src/phy/scrambler.hpp"
#include "src/phy/sync.hpp"
#include "src/phy/timing.hpp"
#include "src/phy/waveform.hpp"

// Reader.
#include "src/reader/detector.hpp"
#include "src/reader/interference.hpp"
#include "src/reader/localization.hpp"
#include "src/reader/reader.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/reader/scanner.hpp"
#include "src/reader/self_interference.hpp"
#include "src/reader/tracking.hpp"

// Baselines.
#include "src/baselines/active_radio.hpp"
#include "src/baselines/backscatter_system.hpp"
#include "src/baselines/fixed_beam_tag.hpp"
#include "src/baselines/specular_plate.hpp"

// MAC and networking.
#include "src/mac/aloha.hpp"
#include "src/mac/event_queue.hpp"
#include "src/mac/inventory.hpp"
#include "src/mac/mimo_reader.hpp"
#include "src/mac/polling.hpp"
#include "src/net/arq.hpp"
#include "src/net/fragmentation.hpp"
#include "src/net/session.hpp"

// Reader-backhaul mesh.
#include "src/mesh/backhaul.hpp"
#include "src/mesh/forwarding.hpp"
#include "src/mesh/link_state.hpp"
#include "src/mesh/routing.hpp"
#include "src/mesh/topology.hpp"

// Simulation toolkit.
#include "src/sim/ascii_plot.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/sweep.hpp"
#include "src/sim/table.hpp"
