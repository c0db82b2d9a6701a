/**
 * @file
 * Recursive Length Prefix (RLP) codec — the serialization format the
 * paper's Fig. 3(a) transaction layout uses for network transport and
 * persistence.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/hex.hpp"
#include "support/u256.hpp"

namespace mtpu::rlp {

/** An RLP item: either a byte string or a list of items. */
struct Item
{
    bool isList = false;
    Bytes str;               ///< payload when !isList
    std::vector<Item> list;  ///< children when isList

    /** Byte-string item. */
    static Item bytes(Bytes b);
    /** Byte-string item from a big-endian minimal encoding of @p v. */
    static Item word(const U256 &v);
    /** Byte-string item from UTF-8 text. */
    static Item text(const std::string &s);
    /** List item. */
    static Item makeList(std::vector<Item> items);

    /** Decode the payload back to a word (big-endian). */
    U256 toWord() const;
};

/** Serialize an item to RLP bytes. */
Bytes encode(const Item &item);

// Streaming encoders: append one encoded item to @p out, for payloads
// too large to build an Item tree for (the state snapshot). The size
// functions give the encoded length without encoding, so a caller can
// reserve the exact buffer and write each list header before its
// payload.

/** Append the byte string @p data[0, @p len). */
void appendBytes(Bytes &out, const std::uint8_t *data, std::size_t len);
/** Append @p v as Item::word() encodes it. */
void appendWord(Bytes &out, const U256 &v);
/** Append the header of a list whose item encodings total @p payload
 *  bytes; the items follow. */
void appendListHeader(Bytes &out, std::size_t payload);
/** Append the header of a byte string of @p len bytes, @p len != 1;
 *  the bytes follow. */
void appendStringHeader(Bytes &out, std::size_t len);

/** Encoded size of the byte string @p data[0, @p len). */
std::size_t bytesSize(const std::uint8_t *data, std::size_t len);
/** Encoded size of appendWord(@p v). */
std::size_t wordSize(const U256 &v);
/** Encoded size of a list (or a byte string of @p payload != 1 bytes)
 *  with @p payload bytes of content. */
std::size_t listSize(std::size_t payload);

/**
 * Streaming decoder over an encoding it does not own: reads one item
 * at a time without building an Item tree, with decode()'s checks
 * (truncation, non-canonical lengths and single bytes). Every method
 * throws std::invalid_argument on malformed input or a wrong item kind.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t len)
        : data_(data), end_(len)
    {}

    bool atEnd() const { return pos_ == end_; }
    /** True when the next item is a list. */
    bool nextIsList() const;
    /** Consume the next item, a list; returns a reader over its items. */
    Reader list();
    /** Consume the next item, a byte string; returns a view of it. */
    std::pair<const std::uint8_t *, std::size_t> bytes();
    /** bytes() as a big-endian word of at most 32 bytes. */
    U256 word();

  private:
    struct Header
    {
        bool isList = false;
        std::size_t begin = 0; ///< payload offset
        std::size_t len = 0;   ///< payload length
    };
    Header peekHeader() const;

    const std::uint8_t *data_;
    std::size_t pos_ = 0;
    std::size_t end_;
};

/**
 * Parse RLP bytes into an item tree.
 * @throws std::invalid_argument on malformed input (truncation,
 *         non-canonical length encoding, trailing bytes).
 */
Item decode(const Bytes &data);

} // namespace mtpu::rlp
