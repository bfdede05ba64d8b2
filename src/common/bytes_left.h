// Remaining size of a seekable input stream, for loaders that size buffers
// from header fields.

#ifndef DGCL_COMMON_BYTES_LEFT_H_
#define DGCL_COMMON_BYTES_LEFT_H_

#include <cstdint>
#include <istream>

namespace dgcl {

// Bytes between the read position of `in` and the end of the stream (0 if
// the stream cannot report positions). Loaders check every size field of a
// file header against this before allocating from it, so a corrupt header
// fails with a Status instead of aborting the process.
inline uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<uint64_t>(end - here);
}

}  // namespace dgcl

#endif  // DGCL_COMMON_BYTES_LEFT_H_
