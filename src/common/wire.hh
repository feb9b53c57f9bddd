/**
 * @file
 * Little-endian byte codec shared by every binary format in the
 * tree: the sweep journal records, the icicled request protocol, the
 * result-cache entries, the daemon<->worker pipe frames, and the
 * .icst trace store writer. One implementation keeps their
 * encodings trivially compatible (doubles always travel as raw bit
 * patterns, strings as u32 length + bytes) and gives each decoder
 * the same bounds-checked cursor, so a torn or hostile buffer
 * degrades to `ok == false` instead of an out-of-bounds read.
 */

#ifndef ICICLE_COMMON_WIRE_HH
#define ICICLE_COMMON_WIRE_HH

#include <cstring>
#include <string>

#include "common/types.hh"

namespace icicle
{
namespace wire
{

inline void
put8(std::string &buf, u8 v)
{
    buf.push_back(static_cast<char>(v));
}

inline void
put32(std::string &buf, u32 v)
{
    buf.append(reinterpret_cast<const char *>(&v), 4);
}

inline void
put64(std::string &buf, u64 v)
{
    buf.append(reinterpret_cast<const char *>(&v), 8);
}

/** LEB128 unsigned varint. */
inline void
putVarint(std::string &buf, u64 v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    buf.push_back(static_cast<char>(v));
}

/** Doubles travel as raw bit patterns: decode is bit-exact. */
inline void
putF64(std::string &buf, double v)
{
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put64(buf, bits);
}

inline void
putStr(std::string &buf, const std::string &s)
{
    put32(buf, static_cast<u32>(s.size()));
    buf += s;
}

/** Bounds-checked decoder; ok flips false on underrun and stays
 * false, so a caller can decode a whole record and check once. */
struct Cursor
{
    const unsigned char *data;
    u64 size;
    u64 pos = 0;
    bool ok = true;

    bool
    need(u64 n)
    {
        if (!ok || pos + n > size || pos + n < pos) {
            ok = false;
            return false;
        }
        return true;
    }

    u8
    get8()
    {
        u8 v = 0;
        if (need(1))
            v = data[pos++];
        return v;
    }

    u32
    get32()
    {
        u32 v = 0;
        if (need(4)) {
            std::memcpy(&v, data + pos, 4);
            pos += 4;
        }
        return v;
    }

    u64
    get64()
    {
        u64 v = 0;
        if (need(8)) {
            std::memcpy(&v, data + pos, 8);
            pos += 8;
        }
        return v;
    }

    double
    getF64()
    {
        const u64 bits = get64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::string
    getStr()
    {
        const u32 len = get32();
        std::string s;
        if (need(len)) {
            s.assign(reinterpret_cast<const char *>(data + pos), len);
            pos += len;
        }
        return s;
    }

    /** The whole buffer was consumed and nothing underran. */
    bool
    atEnd() const
    {
        return ok && pos == size;
    }
};

} // namespace wire
} // namespace icicle

#endif // ICICLE_COMMON_WIRE_HH
