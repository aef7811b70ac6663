// A fixed reference load for measuring how fast the host is right now.
//
// On a shared VM the same deterministic simulation runs 20-40% slower for
// minutes at a time while another tenant loads the machine. The probe is a
// small discrete-event loop (binary-heap pops and pushes, random updates of
// a 16 MB state, data-dependent branches) whose slowdowns track the
// simulator's. Over ~30 s windows of back-to-back incast runs on a 4-core
// Xeon VM, the window-mean probe time (one probe before and one after each
// run) correlated 0.84-0.94 with the window-mean run time, and dividing by
// it cut the window-to-window spread from ~14% to ~5-7% (IQR / median).
// It depends on no simulator code, so a change to the simulator cannot
// change it.
#pragma once

namespace perfbench {

/// Seconds one pass of the reference load takes.
[[nodiscard]] double host_probe_seconds();

}  // namespace perfbench
