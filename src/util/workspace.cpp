#include "util/workspace.hpp"

#include <malloc.h>
#include <sys/mman.h>

#include <new>

namespace rcc {

std::size_t ArenaBuffer::reserve(std::size_t bytes, ArenaBacking backing) {
  if (bytes == 0 || (capacity_ >= bytes && backing_ == backing)) return 0;
  const std::size_t kept = backing_ == backing ? capacity_ : 0;
  release();
  if (backing == ArenaBacking::kShared) {
    ::malloc_trim(0);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<std::byte*>(p);
  } else {
    data_ = new std::byte[bytes];
  }
  capacity_ = bytes;
  backing_ = backing;
  return bytes - kept;
}

void ArenaBuffer::release() {
  if (data_ != nullptr) {
    if (backing_ == ArenaBacking::kShared) {
      ::munmap(data_, capacity_);
    } else {
      delete[] data_;
    }
  }
  data_ = nullptr;
  capacity_ = 0;
}

}  // namespace rcc
