// Binary checkpointing of flat parameter vectors.
//
// Experiments save the global model after a run so that the next run can
// warm-start from it (ScenarioConfig::warm_start_path). Only the parameters
// are saved: a warm-started run restarts the learner, the budget ledger and
// the RNG streams, so it is not a resume and spends its own full budget C.
// The format is a small versioned header (magic, version, element count,
// FNV-1a content hash) followed by raw little-endian floats. Corruption is
// detected on load via the hash.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/ops.h"

namespace fedl::nn {

// Writes `params` to `path`; throws ConfigError on I/O failure.
void save_params(const ParamVec& params, const std::string& path);

// Reads a checkpoint; throws ConfigError on missing file, bad magic,
// version mismatch, truncation, or hash mismatch.
ParamVec load_params(const std::string& path);

// FNV-1a over the raw bytes (exposed for tests).
std::uint64_t params_hash(const ParamVec& params);

}  // namespace fedl::nn
