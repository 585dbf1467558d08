// A fixed-size byte buffer whose pages the kernel zero-fills on first touch.
//
// Simulated host DRAM and the MICA log are hundreds of megabytes in the
// large deployments (Fig. 12 scales the request region with the client
// count), yet a run writes only a small part of them. A value-initialised
// std::vector zeroes every byte up front and makes all of it resident;
// this buffer maps anonymous private pages instead, so a deployment pays
// (in set-up time and resident memory) only for the pages it touches. A
// byte never written reads 0 either way.
//
// The pages come from mmap directly, not calloc: glibc skips calloc's
// memset only for chunks it takes fresh from mmap, and once a large block
// has been freed its dynamic mmap threshold rises, so a later calloc of the
// same size is served from recycled heap memory and memsets every byte —
// the pattern of repeated deployment builds in one process.
//
// Accesses are not bounds-checked here (ASan does not poison mmap'd pages
// either); owners keep their own range checks.
#pragma once

#include <cstddef>

namespace herd::sim {

class ZeroedBytes {
 public:
  /// Maps `size` zero bytes; throws std::bad_alloc when the map fails.
  explicit ZeroedBytes(std::size_t size);
  /// Maps fresh pages and copies every byte of `other` into them.
  ZeroedBytes(const ZeroedBytes& other);
  ZeroedBytes& operator=(const ZeroedBytes&) = delete;
  ~ZeroedBytes();

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace herd::sim
