#include "sim/zeroed_bytes.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace herd::sim {

ZeroedBytes::ZeroedBytes(std::size_t size) : size_(size) {
  if (size == 0) return;  // mmap rejects empty maps
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
}

ZeroedBytes::ZeroedBytes(const ZeroedBytes& other) : ZeroedBytes(other.size_) {
  if (size_ != 0) std::memcpy(data_, other.data_, size_);
}

ZeroedBytes::~ZeroedBytes() {
  if (data_ != nullptr) munmap(data_, size_);
}

}  // namespace herd::sim
