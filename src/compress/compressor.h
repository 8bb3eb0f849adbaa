// Unified update-compression interface for the FL engine.
//
// A Compressor transforms a client's correction d_{t,k} into the vector the
// server actually receives, and states as a pure function of the model size
// how many bits that upload puts on the wire — the payload that replaces
// the constant s in the latency model. kNone reproduces the paper exactly;
// kQuantize/kTopK model the communication-efficiency extensions surveyed in
// related work (e.g. CMFL [28]).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "compress/quantize.h"
#include "compress/topk.h"

namespace fedl::compress {

class Compressor {
 public:
  virtual ~Compressor() = default;
  // Returns what the server aggregates in place of `d`.
  // `client` keys per-client state (e.g. error feedback, RNG stream).
  // Thread-safety contract: concurrent apply() calls are safe as long as
  // every in-flight call uses a distinct `client` — all mutable state is
  // partitioned per client, which is what lets the FL engine compress the
  // selected clients' updates in parallel.
  virtual ParamVec apply(const ParamVec& d, std::size_t client) = 0;
  // Uplink bits of one update of a `dim`-parameter model. Depends on dim
  // alone, never on the values, so the simulated schedule is fixed before
  // any training runs. payload_bits(0) is an empty update: a compressed
  // client that died before its first upload still sends the header.
  virtual double payload_bits(std::size_t dim) const = 0;
  virtual std::string name() const = 0;
};

using CompressorPtr = std::unique_ptr<Compressor>;

// Pass-through at the paper's constant payload s, whatever the model size.
class NoneCompressor : public Compressor {
 public:
  explicit NoneCompressor(double upload_bits) : upload_bits_(upload_bits) {}
  ParamVec apply(const ParamVec& d, std::size_t) override { return d; }
  double payload_bits(std::size_t) const override { return upload_bits_; }
  std::string name() const override { return "none"; }

 private:
  double upload_bits_;
};

// Stochastic quantization to `bits` per parameter. Each client draws its
// rounding randomness from its own forked RNG stream, so quantization is
// independent of the order (or concurrency) in which clients are processed.
// Payload: a 64-bit header (the scale) + bits per parameter.
class QuantizeCompressor : public Compressor {
 public:
  QuantizeCompressor(std::uint8_t bits, std::size_t num_clients,
                     std::uint64_t seed);
  ParamVec apply(const ParamVec& d, std::size_t client) override;
  double payload_bits(std::size_t dim) const override;
  std::string name() const override;

 private:
  std::uint8_t bits_;
  std::vector<Rng> rngs_;  // one stream per client
};

// Top-k with per-client error feedback; `fraction` of coordinates kept.
// Payload: a 64-bit header + a 32-bit index and a 32-bit value per kept
// coordinate.
class TopKCompressor : public Compressor {
 public:
  TopKCompressor(double fraction, std::size_t num_clients);
  ParamVec apply(const ParamVec& d, std::size_t client) override;
  double payload_bits(std::size_t dim) const override;
  std::string name() const override;

 private:
  // Coordinates kept of a `dim`-parameter update.
  std::size_t kept(std::size_t dim) const;

  double fraction_;
  std::vector<ErrorFeedback> feedback_;
};

// Factory: "none", "quant8", "quant4", "topk10" (10% kept), "topk1".
// `upload_bits` is the paper's constant s, the payload of "none".
CompressorPtr make_compressor(const std::string& name,
                              std::size_t num_clients, std::uint64_t seed,
                              double upload_bits);

}  // namespace fedl::compress
