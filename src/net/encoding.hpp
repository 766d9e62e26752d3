#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/simulator.hpp"

namespace katric::net {

/// Delta–varint compression for sorted vertex-ID lists — the classic
/// volume-reduction technique for neighborhood exchange. Sorted IDs have
/// small gaps exactly when the graph has ID locality, so compression and
/// CETRIC's contraction profit from the same structure (and the compressed
/// global phase shows it: see the compression ablation bench).
///
/// Wire layout: the byte stream (first value varint-encoded, then the gaps)
/// packed little-endian into 64-bit words; the element count travels in the
/// record header, the word count is implicit in the record length.

/// Appends the encoding of `values` (strictly increasing) to `out`.
/// Returns the number of words appended.
std::size_t encode_sorted(std::span<const std::uint64_t> values, WordVec& out);

/// Decodes `count` values from `words` into `out` (cleared first).
void decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                   std::vector<std::uint64_t>& out);

/// Exact number of words encode_sorted would append (for sizing decisions).
[[nodiscard]] std::size_t encoded_words(std::span<const std::uint64_t> values);

/// Non-throwing variant of decode_sorted for untrusted buffers: returns
/// false (leaving `out` cleared) on a truncated or overlong varint stream
/// instead of tripping KATRIC_ASSERT. Never reads past `words`. The hardened
/// message layer verifies frame checksums before decoding, so the throwing
/// decode_sorted stays the hot path; this is the belt to that suspender (and
/// the fuzz target).
[[nodiscard]] bool try_decode_sorted(std::span<const std::uint64_t> words,
                                     std::size_t count, std::vector<std::uint64_t>& out);

/// ---------------------------------------------------------------------------
/// Physical frame format of the hardened message layer (src/fault/). When a
/// run is hardened, every cross-rank payload send travels as
///
///   [frame_id, payload_words, checksum, payload...]
///
/// where checksum covers (frame_id, src, dest, tag, payload length, payload
/// words) via the library's hash64 chain — an xxhash-style integrity check,
/// not a cryptographic MAC. Truncation is caught by the length word,
/// corruption (including a flip inside the header itself) by the checksum;
/// duplicated frames are recognized by frame_id at the receiver.

inline constexpr std::size_t kFrameHeaderWords = 3;

/// Integrity checksum over the frame's identity and content.
[[nodiscard]] std::uint64_t frame_checksum(std::uint64_t frame_id, std::uint32_t src,
                                           std::uint32_t dest, int tag,
                                           std::span<const std::uint64_t> payload);

/// Builds the framed buffer: header + copy of `payload`.
[[nodiscard]] WordVec frame_payload(std::uint64_t frame_id, std::uint32_t src,
                                    std::uint32_t dest, int tag,
                                    std::span<const std::uint64_t> payload);

/// frame_payload before the frame id is known: the O(|payload|) copy and
/// checksum pass, leaving the id word 0 and a partial checksum. seal_frame
/// then stamps the id in O(1) — so a sender can frame while the id is
/// still to be assigned; sealed, the buffer equals frame_payload's.
[[nodiscard]] WordVec frame_unsealed(std::uint32_t src, std::uint32_t dest, int tag,
                                     std::span<const std::uint64_t> payload);
void seal_frame(WordVec& framed, std::uint64_t frame_id);

enum class FrameStatus : std::uint8_t {
    kOk = 0,
    kTruncated,  ///< buffer shorter than header + declared payload length
    kCorrupt,    ///< checksum mismatch (bit flip in header or payload)
};

/// A verified view into a framed buffer. `payload` aliases the input words
/// and is only meaningful when status == kOk.
struct FrameView {
    FrameStatus status = FrameStatus::kTruncated;
    std::uint64_t frame_id = 0;
    std::span<const std::uint64_t> payload;
};

/// Verifies a received framed buffer against the channel identity the
/// receiver knows out of band. Never reads out of bounds on any input.
[[nodiscard]] FrameView verify_frame(std::span<const std::uint64_t> words,
                                     std::uint32_t src, std::uint32_t dest, int tag);

/// ZigZag mapping for the signed per-vertex delta records of the streaming
/// LCC flush: the sign moves into the LSB, so small-magnitude deltas of
/// either sign encode to small words (−1 → 1, 1 → 2, −2 → 3, …) and stay
/// friendly to any downstream varint packing.
[[nodiscard]] constexpr std::uint64_t encode_signed(std::int64_t value) noexcept {
    return (static_cast<std::uint64_t>(value) << 1)
           ^ static_cast<std::uint64_t>(value >> 63);
}

[[nodiscard]] constexpr std::int64_t decode_signed(std::uint64_t word) noexcept {
    return static_cast<std::int64_t>((word >> 1) ^ (0 - (word & 1)));
}

}  // namespace katric::net
