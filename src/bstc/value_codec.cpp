#include "bstc/value_codec.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "common/logging.hpp"

namespace mcbp::bstc {

namespace {

constexpr std::size_t kAlphabet = 256;

std::uint8_t
toSymbol(std::int8_t v)
{
    return static_cast<std::uint8_t>(v);
}

std::int8_t
fromSymbol(std::uint8_t s)
{
    return static_cast<std::int8_t>(s);
}

} // namespace

ValueCompressed
rleEncode(const Int8Matrix &w)
{
    // Each symbol is written whole, LSB first: a zero-run chunk is a
    // 0 flag then its 4-bit length - 1 (5 bits), a literal a 1 flag
    // then its 8-bit symbol (9 bits).
    BitWriter writer;
    std::size_t run = 0;
    auto flush_run = [&]() {
        while (run > 0) {
            const std::size_t chunk = std::min<std::size_t>(run, 16);
            writer.putBits(static_cast<std::uint32_t>(chunk - 1) << 1, 5);
            run -= chunk;
        }
    };
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const std::int8_t v = w.at(r, c);
            if (v == 0) {
                ++run;
            } else {
                flush_run();
                writer.putBits(1u | std::uint32_t{toSymbol(v)} << 1, 9);
            }
        }
    }
    flush_run();
    ValueCompressed blob;
    blob.bitCount = writer.bitCount();
    blob.data = writer.takeWords();
    blob.rows = w.rows();
    blob.cols = w.cols();
    return blob;
}

Int8Matrix
rleDecode(const ValueCompressed &blob)
{
    Int8Matrix w(blob.rows, blob.cols);
    BitReader reader(blob.data, blob.bitCount);
    std::size_t idx = 0;
    const std::size_t total = blob.rows * blob.cols;
    while (idx < total) {
        if (reader.getBit()) {
            const std::uint8_t sym =
                static_cast<std::uint8_t>(reader.getBits(8));
            w.at(idx / blob.cols, idx % blob.cols) = fromSymbol(sym);
            ++idx;
        } else {
            const std::size_t run = reader.getBits(4) + 1;
            panicIf(idx + run > total, "RLE run overflows matrix");
            idx += run; // zeros are already in place
        }
    }
    return w;
}

namespace {

/** Huffman code lengths for the 256-symbol alphabet (0 = unused). */
std::array<std::uint8_t, kAlphabet>
huffmanLengths(const std::array<std::uint64_t, kAlphabet> &freq)
{
    struct Node
    {
        std::uint64_t weight;
        int index; // < 256: leaf symbol; >= 256: internal node id.
    };
    struct Cmp
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.weight != b.weight)
                return a.weight > b.weight;
            return a.index > b.index; // deterministic tie-break
        }
    };
    std::priority_queue<Node, std::vector<Node>, Cmp> heap;
    std::vector<std::pair<int, int>> children; // internal node children
    for (std::size_t s = 0; s < kAlphabet; ++s) {
        if (freq[s] > 0)
            heap.push({freq[s], static_cast<int>(s)});
    }
    std::array<std::uint8_t, kAlphabet> lengths{};
    if (heap.empty())
        return lengths;
    if (heap.size() == 1) {
        lengths[static_cast<std::size_t>(heap.top().index)] = 1;
        return lengths;
    }
    while (heap.size() > 1) {
        Node a = heap.top();
        heap.pop();
        Node b = heap.top();
        heap.pop();
        const int id = static_cast<int>(kAlphabet + children.size());
        children.emplace_back(a.index, b.index);
        heap.push({a.weight + b.weight, id});
    }
    // Depth-first depth assignment from the root.
    std::vector<std::pair<int, int>> stack{{heap.top().index, 0}};
    while (!stack.empty()) {
        auto [idx, depth] = stack.back();
        stack.pop_back();
        if (idx < static_cast<int>(kAlphabet)) {
            lengths[static_cast<std::size_t>(idx)] =
                static_cast<std::uint8_t>(depth);
        } else {
            const auto &[l, r] =
                children[static_cast<std::size_t>(idx) - kAlphabet];
            stack.push_back({l, depth + 1});
            stack.push_back({r, depth + 1});
        }
    }
    return lengths;
}

/** Canonical code assignment: symbols ordered by (length, symbol). */
struct CanonicalCode
{
    /** Codes up to 63 bits, read MSB-first. */
    std::array<std::uint64_t, kAlphabet> code{};
    /** Each code bit-reversed within its length: the LSB-first
     *  BitWriter order, so one putBits emits the MSB-first code. */
    std::array<std::uint64_t, kAlphabet> reversed{};
    std::array<std::uint8_t, kAlphabet> length{};
    std::uint8_t maxLen = 0;
    // Decoding tables.
    std::array<std::uint64_t, 64> firstCode{};
    std::array<std::uint32_t, 64> countAtLen{};
    std::array<std::uint32_t, 64> offsetAtLen{};
    std::vector<std::uint8_t> symbolsSorted;
};

CanonicalCode
buildCanonical(const std::array<std::uint8_t, kAlphabet> &lengths)
{
    CanonicalCode cc;
    cc.length = lengths;
    std::vector<std::uint16_t> order;
    for (std::size_t s = 0; s < kAlphabet; ++s) {
        if (lengths[s] > 0) {
            order.push_back(static_cast<std::uint16_t>(s));
            cc.maxLen = std::max(cc.maxLen, lengths[s]);
        }
    }
    panicIf(cc.maxLen >= 64, "Huffman code length overflow");
    std::sort(order.begin(), order.end(),
              [&](std::uint16_t a, std::uint16_t b) {
                  if (lengths[a] != lengths[b])
                      return lengths[a] < lengths[b];
                  return a < b;
              });
    std::uint64_t code = 0;
    std::uint8_t prev_len = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const std::uint16_t s = order[i];
        code <<= (lengths[s] - prev_len);
        cc.code[s] = code;
        for (unsigned b = 0; b < lengths[s]; ++b)
            cc.reversed[s] |= ((code >> b) & 1u) << (lengths[s] - 1 - b);
        prev_len = lengths[s];
        ++code;
    }
    // Decoding tables per length.
    cc.symbolsSorted.assign(order.begin(), order.end());
    std::uint32_t offset = 0;
    for (std::uint8_t len = 1; len <= cc.maxLen; ++len) {
        std::uint32_t count = 0;
        std::uint64_t first = 0;
        bool seen = false;
        for (std::uint16_t s : order) {
            if (lengths[s] == len) {
                if (!seen) {
                    first = cc.code[s];
                    seen = true;
                }
                ++count;
            }
        }
        cc.firstCode[len] = first;
        cc.countAtLen[len] = count;
        cc.offsetAtLen[len] = offset;
        offset += count;
    }
    return cc;
}

} // namespace

ValueCompressed
huffmanEncode(const Int8Matrix &w)
{
    fatalIf(w.empty(), "cannot compress an empty matrix");
    std::array<std::uint64_t, kAlphabet> freq{};
    w.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        ++freq[toSymbol(v)];
    });
    const auto lengths = huffmanLengths(freq);
    CanonicalCode cc = buildCanonical(lengths);

    BitWriter writer;
    // Header: 256 x 6-bit code lengths.
    for (std::size_t s = 0; s < kAlphabet; ++s)
        writer.putBits(lengths[s], 6);
    // Body: canonical codes, MSB-first, each written whole from its
    // bit-reversed form (two writes for a code longer than 32 bits).
    w.forEach([&](std::size_t, std::size_t, std::int8_t v) {
        const std::uint8_t s = toSymbol(v);
        const unsigned len = cc.length[s];
        const std::uint64_t rev = cc.reversed[s];
        if (len <= 32) {
            writer.putBits(static_cast<std::uint32_t>(rev), len);
        } else {
            writer.putBits(static_cast<std::uint32_t>(rev), 32);
            writer.putBits(static_cast<std::uint32_t>(rev >> 32), len - 32);
        }
    });
    ValueCompressed blob;
    blob.bitCount = writer.bitCount();
    blob.data = writer.takeWords();
    blob.rows = w.rows();
    blob.cols = w.cols();
    return blob;
}

Int8Matrix
huffmanDecode(const ValueCompressed &blob)
{
    BitReader reader(blob.data, blob.bitCount);
    std::array<std::uint8_t, kAlphabet> lengths{};
    for (std::size_t s = 0; s < kAlphabet; ++s)
        lengths[s] = static_cast<std::uint8_t>(reader.getBits(6));
    CanonicalCode cc = buildCanonical(lengths);

    Int8Matrix w(blob.rows, blob.cols);
    const std::size_t total = blob.rows * blob.cols;
    for (std::size_t idx = 0; idx < total; ++idx) {
        std::uint64_t code = 0;
        std::uint8_t len = 0;
        for (;;) {
            code = (code << 1) | static_cast<std::uint64_t>(
                                     reader.getBit());
            ++len;
            panicIf(len > cc.maxLen, "corrupt Huffman stream");
            if (cc.countAtLen[len] > 0 &&
                code >= cc.firstCode[len] &&
                code - cc.firstCode[len] < cc.countAtLen[len]) {
                const std::uint32_t pos =
                    cc.offsetAtLen[len] + static_cast<std::uint32_t>(
                                              code - cc.firstCode[len]);
                w.at(idx / blob.cols, idx % blob.cols) =
                    fromSymbol(cc.symbolsSorted[pos]);
                break;
            }
        }
    }
    return w;
}

double
valueCompressionRatio(const ValueCompressed &blob)
{
    if (blob.bitCount == 0)
        return 1.0;
    return 8.0 * static_cast<double>(blob.rows) *
           static_cast<double>(blob.cols) /
           static_cast<double>(blob.bitCount);
}

} // namespace mcbp::bstc
