// Convenience driver that tunes one convolution workload on one device and
// records the result in the tuning database (Sec. 3.2.3).
#pragma once

#include "ops/nn/conv2d.h"
#include "sim/device_spec.h"
#include "tune/tunedb.h"
#include "tune/tuner.h"

namespace igc::tune {

/// Tunes `p` on `dev` with the activation layout NCHW[layout_block]c
/// (1 = plain NCHW) and stores the record in `db` (if not already present).
/// Returns the record.
TuneRecord tune_conv2d(const ops::Conv2dParams& p, const sim::DeviceSpec& dev,
                       int layout_block, TuneDb& db,
                       const TuneOptions& opts = {});

/// Looks up the tuned config for a workload under `layout_block`; falls back
/// to the template default when `db` is null or has no entry. Either config
/// carries `layout_block`. Graphs resolve every conv through
/// graphtune::resolve_conv_schedules, which calls this.
ScheduleConfig lookup_or_default(const ops::Conv2dParams& p,
                                 const sim::DeviceSpec& dev, int layout_block,
                                 const TuneDb* db);

}  // namespace igc::tune
