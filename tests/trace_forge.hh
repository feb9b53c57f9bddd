/**
 * @file
 * Byte-level writer for the legacy .trc trace format, which the
 * toolchain only reads (readTrace, `icicle-trace pack`). Tests use it
 * to forge malformed headers and, via trace(), well-formed version-2
 * files: header, field table, cycle count, cycle words, then a CRC32
 * of the words.
 */

#ifndef ICICLE_TESTS_TRACE_FORGE_HH
#define ICICLE_TESTS_TRACE_FORGE_HH

#include <fstream>
#include <string>

#include "common/crc32.hh"
#include "trace/trace.hh"

namespace icicle
{

constexpr u32 kTraceForgeMagic = 0x49434c54; // "ICLT"

class TraceForge
{
  public:
    explicit TraceForge(const std::string &path)
        : out(path, std::ios::binary)
    {}

    void
    put32(u32 v)
    {
        out.write(reinterpret_cast<const char *>(&v), 4);
    }

    void
    put64(u64 v)
    {
        out.write(reinterpret_cast<const char *>(&v), 8);
    }

    void
    header(u32 magic = kTraceForgeMagic, u32 version = 1)
    {
        put32(magic);
        put32(version);
    }

    void
    field(u32 event, u32 lane)
    {
        put32(event);
        put32(lane);
    }

    /** A whole version-2 file: header, cycle words, CRC trailer. */
    void
    trace(const Trace &source)
    {
        header(kTraceForgeMagic, 2);
        put32(source.spec().numFields());
        for (const TraceField &f : source.spec().fields)
            field(static_cast<u32>(f.event), f.lane);
        put64(source.numCycles());
        Crc32 crc;
        for (u64 word : source.raw()) {
            put64(word);
            crc.update(&word, sizeof(word));
        }
        put32(crc.value());
    }

    void close() { out.close(); }

  private:
    std::ofstream out;
};

/** Write `trace` to `path` as a version-2 .trc file. */
inline void
forgeTrace(const Trace &trace, const std::string &path)
{
    TraceForge forge(path);
    forge.trace(trace);
    forge.close();
}

} // namespace icicle

#endif // ICICLE_TESTS_TRACE_FORGE_HH
