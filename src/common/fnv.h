// FNV-1a (64-bit): the one checksum of the image, WAL and wire formats.
// Simple, dependency-free and byte-order independent — adequate for
// catching truncation and bit corruption, not for adversaries.

#ifndef LPATHDB_COMMON_FNV_H_
#define LPATHDB_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

namespace lpath {

inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ull;

/// FNV-1a64 of the `n` bytes at `data`, continuing from `hash`: the
/// default offset basis starts a digest, and passing a previous result
/// continues it, so hashing pieces in turn equals hashing their
/// concatenation.
inline uint64_t Fnv1a64(const void* data, size_t n,
                        uint64_t hash = kFnv1a64Offset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnv1a64Prime;
  }
  return hash;
}

}  // namespace lpath

#endif  // LPATHDB_COMMON_FNV_H_
