#include "index/build_params.h"

#include <string>

namespace stpq {

Status CheckBuildParams(const IndexBuildParams& params, uint64_t table_count) {
  if (params.page_size_bytes < kMinPageSizeBytes ||
      params.page_size_bytes > kMaxPageSizeBytes) {
    return Status::InvalidArgument(
        "page_size_bytes must be in [" + std::to_string(kMinPageSizeBytes) +
        ", " + std::to_string(kMaxPageSizeBytes) + "], got " +
        std::to_string(params.page_size_bytes));
  }
  if (!(params.fill > 0.0 && params.fill <= 1.0)) {
    return Status::InvalidArgument("fill must be in (0, 1], got " +
                                   std::to_string(params.fill));
  }
  if (params.signature_bits > kMaxSignatureBits) {
    return Status::InvalidArgument(
        "signature_bits must be 0 (auto) or at most " +
        std::to_string(kMaxSignatureBits) + ", got " +
        std::to_string(params.signature_bits));
  }
  // No more hashes than bits; the automatic width is never below 64.
  const bool automatic = params.signature_bits == 0;
  const uint32_t bits = automatic ? 64 : params.signature_bits;
  if (params.signature_hashes == 0 || params.signature_hashes > bits) {
    return Status::InvalidArgument(
        "signature_hashes must be in [1, " + std::to_string(bits) + "] " +
        (automatic ? "when signature_bits is 0 (auto)"
                   : "for signature_bits " + std::to_string(bits)) +
        ", got " + std::to_string(params.signature_hashes));
  }
  if (table_count > kMaxFeatureSets) {
    return Status::InvalidArgument(
        "an index set holds at most " + std::to_string(kMaxFeatureSets) +
        " feature sets, got " + std::to_string(table_count));
  }
  return Status::OK();
}

}  // namespace stpq
