#include "support/rlp.hpp"

#include <stdexcept>

namespace mtpu::rlp {

Item
Item::bytes(Bytes b)
{
    Item it;
    it.str = std::move(b);
    return it;
}

Item
Item::word(const U256 &v)
{
    Bytes b;
    int len = v.byteLength();
    std::uint8_t buf[32];
    v.toBytes(buf);
    b.assign(buf + 32 - len, buf + 32);
    return bytes(std::move(b));
}

Item
Item::text(const std::string &s)
{
    return bytes(Bytes(s.begin(), s.end()));
}

Item
Item::makeList(std::vector<Item> items)
{
    Item it;
    it.isList = true;
    it.list = std::move(items);
    return it;
}

U256
Item::toWord() const
{
    if (isList)
        throw std::invalid_argument("rlp: list is not a word");
    if (str.size() > 32)
        throw std::invalid_argument("rlp: word longer than 32 bytes");
    return U256::fromBytes(str.data(), str.size());
}

namespace {

void
appendLength(Bytes &out, std::size_t len, std::uint8_t short_base,
             std::uint8_t long_base)
{
    if (len <= 55) {
        out.push_back(std::uint8_t(short_base + len));
        return;
    }
    Bytes len_bytes;
    for (std::size_t v = len; v; v >>= 8)
        len_bytes.insert(len_bytes.begin(), std::uint8_t(v & 0xff));
    out.push_back(std::uint8_t(long_base + len_bytes.size()));
    out.insert(out.end(), len_bytes.begin(), len_bytes.end());
}

} // namespace

void
appendBytes(Bytes &out, const std::uint8_t *data, std::size_t len)
{
    if (len == 1 && data[0] < 0x80) {
        out.push_back(data[0]);
        return;
    }
    appendLength(out, len, 0x80, 0xb7);
    out.insert(out.end(), data, data + len);
}

void
appendWord(Bytes &out, const U256 &v)
{
    std::uint8_t buf[32];
    v.toBytes(buf);
    const int len = v.byteLength();
    appendBytes(out, buf + 32 - len, std::size_t(len));
}

void
appendListHeader(Bytes &out, std::size_t payload)
{
    appendLength(out, payload, 0xc0, 0xf7);
}

void
appendStringHeader(Bytes &out, std::size_t len)
{
    appendLength(out, len, 0x80, 0xb7);
}

std::size_t
listSize(std::size_t payload)
{
    std::size_t header = 1;
    if (payload > 55)
        for (std::size_t v = payload; v; v >>= 8)
            ++header;
    return header + payload;
}

std::size_t
bytesSize(const std::uint8_t *data, std::size_t len)
{
    return len == 1 && data[0] < 0x80 ? 1 : listSize(len);
}

std::size_t
wordSize(const U256 &v)
{
    const int len = v.byteLength();
    if (len == 1 && v.low64() < 0x80)
        return 1;
    return 1 + std::size_t(len);
}

namespace {

void
encodeInto(const Item &item, Bytes &out)
{
    if (!item.isList) {
        appendBytes(out, item.str.data(), item.str.size());
        return;
    }
    Bytes payload;
    for (const Item &child : item.list)
        encodeInto(child, payload);
    appendListHeader(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
}

Item
decodeItem(Reader &r)
{
    if (r.nextIsList()) {
        Reader sub = r.list();
        Item out;
        out.isList = true;
        while (!sub.atEnd())
            out.list.push_back(decodeItem(sub));
        return out;
    }
    const auto [data, len] = r.bytes();
    return Item::bytes(Bytes(data, data + len));
}

} // namespace

Bytes
encode(const Item &item)
{
    Bytes out;
    encodeInto(item, out);
    return out;
}

Item
decode(const Bytes &data)
{
    Reader r(data.data(), data.size());
    Item out = decodeItem(r);
    if (!r.atEnd())
        throw std::invalid_argument("rlp: trailing bytes");
    return out;
}

Reader::Header
Reader::peekHeader() const
{
    if (pos_ >= end_)
        throw std::invalid_argument("rlp: truncated input");
    const std::uint8_t tag = data_[pos_];
    Header h;
    std::size_t at = pos_ + 1;
    // Long-form length: big-endian, no leading zero, above 55.
    auto long_length = [&](std::size_t n_bytes) {
        if (n_bytes > 8)
            throw std::invalid_argument("rlp: length too large");
        if (at + n_bytes > end_)
            throw std::invalid_argument("rlp: truncated input");
        if (data_[at] == 0)
            throw std::invalid_argument("rlp: non-canonical length");
        std::size_t len = 0;
        for (std::size_t i = 0; i < n_bytes; ++i)
            len = (len << 8) | data_[at + i];
        if (len <= 55)
            throw std::invalid_argument("rlp: non-canonical length");
        at += n_bytes;
        return len;
    };
    if (tag < 0x80) {
        h.begin = pos_;
        h.len = 1;
    } else if (tag <= 0xb7) {
        h.len = tag - 0x80;
    } else if (tag <= 0xbf) {
        h.len = long_length(tag - 0xb7);
    } else if (tag <= 0xf7) {
        h.isList = true;
        h.len = tag - 0xc0;
    } else {
        h.isList = true;
        h.len = long_length(tag - 0xf7);
    }
    if (tag >= 0x80)
        h.begin = at;
    if (h.len > end_ - h.begin)
        throw std::invalid_argument("rlp: truncated input");
    if (tag >= 0x80 && tag <= 0xb7 && h.len == 1 && data_[h.begin] < 0x80)
        throw std::invalid_argument("rlp: non-canonical single byte");
    return h;
}

bool
Reader::nextIsList() const
{
    return peekHeader().isList;
}

Reader
Reader::list()
{
    const Header h = peekHeader();
    if (!h.isList)
        throw std::invalid_argument("rlp: expected a list");
    pos_ = h.begin + h.len;
    return Reader(data_ + h.begin, h.len);
}

std::pair<const std::uint8_t *, std::size_t>
Reader::bytes()
{
    const Header h = peekHeader();
    if (h.isList)
        throw std::invalid_argument("rlp: list is not a byte string");
    pos_ = h.begin + h.len;
    return {data_ + h.begin, h.len};
}

U256
Reader::word()
{
    const auto [data, len] = bytes();
    if (len > 32)
        throw std::invalid_argument("rlp: word longer than 32 bytes");
    return U256::fromBytes(data, len);
}

} // namespace mtpu::rlp
