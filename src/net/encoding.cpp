#include "net/encoding.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace katric::net {

namespace {

/// LEB128-style varint: 7 payload bits per byte, high bit = continuation.
inline void push_varint(std::vector<std::uint8_t>& bytes, std::uint64_t value) {
    while (value >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(value) | 0x80);
        value >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(value));
}

inline std::size_t varint_bytes(std::uint64_t value) {
    std::size_t n = 1;
    while (value >= 0x80) {
        value >>= 7;
        ++n;
    }
    return n;
}

std::vector<std::uint8_t> encode_bytes(std::span<const std::uint64_t> values) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(values.size() * 2);
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t v : values) {
        if (first) {
            push_varint(bytes, v);
            first = false;
        } else {
            KATRIC_ASSERT_MSG(v > previous, "encode_sorted requires strictly increasing input");
            push_varint(bytes, v - previous);
        }
        previous = v;
    }
    return bytes;
}

}  // namespace

std::size_t encode_sorted(std::span<const std::uint64_t> values, WordVec& out) {
    const auto bytes = encode_bytes(values);
    const std::size_t words = (bytes.size() + 7) / 8;
    const std::size_t base = out.size();
    out.resize(base + words, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        out[base + i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
    }
    return words;
}

std::size_t encoded_words(std::span<const std::uint64_t> values) {
    std::size_t bytes = 0;
    std::uint64_t previous = 0;
    bool first = true;
    for (const std::uint64_t v : values) {
        bytes += varint_bytes(first ? v : v - previous);
        previous = v;
        first = false;
    }
    return (bytes + 7) / 8;
}

void decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                   std::vector<std::uint64_t>& out) {
    out.clear();
    out.reserve(count);
    std::size_t byte_index = 0;
    const std::size_t byte_limit = words.size() * 8;
    auto next_byte = [&]() {
        KATRIC_ASSERT_MSG(byte_index < byte_limit, "varint stream truncated");
        const std::uint8_t b = static_cast<std::uint8_t>(
            words[byte_index / 8] >> (8 * (byte_index % 8)));
        ++byte_index;
        return b;
    };
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t value = 0;
        int shift = 0;
        while (true) {
            const std::uint8_t b = next_byte();
            // The 10th byte contributes only bit 0 (shift 63); any higher
            // payload bit would be silently shifted out of the uint64.
            KATRIC_ASSERT_MSG(shift < 63 || (b & 0x7e) == 0, "varint overlong");
            value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) { break; }
            shift += 7;
            KATRIC_ASSERT_MSG(shift < 64, "varint overlong");
        }
        previous = (i == 0) ? value : previous + value;
        out.push_back(previous);
    }
}

bool try_decode_sorted(std::span<const std::uint64_t> words, std::size_t count,
                       std::vector<std::uint64_t>& out) {
    out.clear();
    // A varint needs at least one byte per value; cheap upfront reject keeps
    // a hostile `count` from reserving unbounded memory.
    const std::size_t byte_limit = words.size() * 8;
    if (count > byte_limit) { return false; }
    out.reserve(count);
    std::size_t byte_index = 0;
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t value = 0;
        int shift = 0;
        while (true) {
            if (byte_index >= byte_limit) {
                out.clear();
                return false;  // truncated stream
            }
            const std::uint8_t b = static_cast<std::uint8_t>(
                words[byte_index / 8] >> (8 * (byte_index % 8)));
            ++byte_index;
            if (shift == 63 && (b & 0x7e) != 0) {
                out.clear();
                // Overlong: the 10th byte contributes only bit 0; higher
                // payload bits would be silently shifted out of the uint64,
                // decoding a corrupted stream to a wrong value.
                return false;
            }
            value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) { break; }
            shift += 7;
            if (shift >= 64) {
                out.clear();
                return false;  // overlong varint
            }
        }
        previous = (i == 0) ? value : previous + value;
        out.push_back(previous);
    }
    return true;
}

namespace {

/// The checksum chain over everything but the frame id.
std::uint64_t content_digest(std::uint32_t src, std::uint32_t dest, int tag,
                             std::span<const std::uint64_t> payload) {
    std::uint64_t h = hash_combine(0x6672616d65ULL /* "frame" */, src);
    h = hash_combine(h, dest);
    h = hash_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
    h = hash_combine(h, payload.size());
    for (const std::uint64_t word : payload) { h = hash_combine(h, word); }
    return h;
}

std::uint64_t with_frame_id(std::uint64_t digest, std::uint64_t frame_id) {
    return hash64_seeded(frame_id, digest);
}

}  // namespace

std::uint64_t frame_checksum(std::uint64_t frame_id, std::uint32_t src,
                             std::uint32_t dest, int tag,
                             std::span<const std::uint64_t> payload) {
    return with_frame_id(content_digest(src, dest, tag, payload), frame_id);
}

WordVec frame_unsealed(std::uint32_t src, std::uint32_t dest, int tag,
                       std::span<const std::uint64_t> payload) {
    WordVec framed;
    framed.reserve(kFrameHeaderWords + payload.size());
    framed.push_back(0);
    framed.push_back(payload.size());
    framed.push_back(content_digest(src, dest, tag, payload));
    framed.insert(framed.end(), payload.begin(), payload.end());
    return framed;
}

void seal_frame(WordVec& framed, std::uint64_t frame_id) {
    KATRIC_ASSERT(framed.size() >= kFrameHeaderWords && framed[0] == 0);
    framed[0] = frame_id;
    framed[2] = with_frame_id(framed[2], frame_id);
}

WordVec frame_payload(std::uint64_t frame_id, std::uint32_t src, std::uint32_t dest,
                      int tag, std::span<const std::uint64_t> payload) {
    WordVec framed = frame_unsealed(src, dest, tag, payload);
    seal_frame(framed, frame_id);
    return framed;
}

FrameView verify_frame(std::span<const std::uint64_t> words, std::uint32_t src,
                       std::uint32_t dest, int tag) {
    FrameView view;
    if (words.size() < kFrameHeaderWords) { return view; }  // kTruncated
    const std::uint64_t frame_id = words[0];
    const std::uint64_t declared = words[1];
    view.frame_id = frame_id;
    if (words.size() - kFrameHeaderWords < declared) { return view; }  // kTruncated
    const auto payload = words.subspan(kFrameHeaderWords, declared);
    if (frame_checksum(frame_id, src, dest, tag, payload) != words[2]) {
        view.status = FrameStatus::kCorrupt;
        return view;
    }
    view.status = FrameStatus::kOk;
    view.payload = payload;
    return view;
}

}  // namespace katric::net
