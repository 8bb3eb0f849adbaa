// JSON export of training traces and run summaries, for external plotting
// (any notebook can read the per-epoch series without parsing bench stdout).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "fl/trace.h"
#include "obs/metrics.h"

namespace fedl::harness {

// Serializes one trace as {"algorithm": ..., "records": [{...}, ...]}.
void write_trace_json(std::ostream& os, const fl::TrainTrace& trace);

// Serializes several traces as a JSON array; `path` version writes a file
// (throws ConfigError on I/O failure).
void write_traces_json(std::ostream& os,
                       const std::vector<fl::TrainTrace>& traces);
void write_traces_json_file(const std::string& path,
                            const std::vector<fl::TrainTrace>& traces);

// Bundles traces and the metrics snapshot of the run that produced them:
// {"traces": [...], "metrics": {...}}.
void write_run_json(std::ostream& os,
                    const std::vector<fl::TrainTrace>& traces,
                    const obs::MetricsSnapshot& snapshot);
void write_run_json_file(const std::string& path,
                         const std::vector<fl::TrainTrace>& traces,
                         const obs::MetricsSnapshot& snapshot);

}  // namespace fedl::harness
