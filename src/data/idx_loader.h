// Loader for the IDX file format used by MNIST / Fashion-MNIST
// (http://yann.lecun.com/exdb/mnist/). The evaluation ships with synthetic
// stand-ins (no dataset files in this environment — DESIGN.md §5), but a
// downstream user with the real `*-images-idx3-ubyte` / `*-labels-idx1-ubyte`
// files can load them here and run every experiment on the true data.
//
// Format: big-endian magic (0x00000801 for labels, 0x00000803 for images),
// then dimension sizes, then raw unsigned bytes. Pixels are normalized to
// [0, 1] and returned as an NCHW float dataset with one channel.
#pragma once

#include <string>

#include "data/dataset.h"

namespace fedl::data {

// Loads an images + labels IDX pair; throws ConfigError on malformed files
// or mismatched counts. `limit` > 0 truncates to the first `limit` samples.
Dataset load_idx(const std::string& images_path,
                 const std::string& labels_path, std::size_t num_classes = 10,
                 std::size_t limit = 0);

// Writes a dataset to an IDX pair (inverse of load_idx; the IDX tests write
// their fixtures with it). Pixels are clamped to [0, 1] and quantized to
// bytes.
void save_idx(const Dataset& ds, const std::string& images_path,
              const std::string& labels_path);

}  // namespace fedl::data
