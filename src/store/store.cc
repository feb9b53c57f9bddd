#include "store/store.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "common/crc32.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/wire.hh"
#include "core/session.hh"
#include "fault/fault.hh"

namespace icicle
{

namespace
{

/** Throw a typed StoreError (a FatalError carrying its kind). */
template <typename... Args>
[[noreturn]] void
storeFatal(StoreErrorKind kind, const Args &...args)
{
    throw StoreError(kind, detail::format(args...));
}

/** Cursor over a byte buffer with truncation checks. */
struct ByteCursor
{
    const unsigned char *data;
    std::size_t size;
    std::size_t pos = 0;
    const char *path;
    StoreErrorKind kind = StoreErrorKind::Block;

    void
    need(std::size_t n, const char *what) const
    {
        if (pos + n > size)
            storeFatal(kind, "corrupt trace store ", path,
                       ": truncated ", what);
    }

    u32
    get32(const char *what)
    {
        need(4, what);
        u32 v;
        std::memcpy(&v, data + pos, 4);
        pos += 4;
        return v;
    }

    u64
    get64(const char *what)
    {
        need(8, what);
        u64 v;
        std::memcpy(&v, data + pos, 8);
        pos += 8;
        return v;
    }

    u64
    getVarint(const char *what)
    {
        u64 v = 0;
        u32 shift = 0;
        for (;;) {
            need(1, what);
            const unsigned char byte = data[pos++];
            if (shift >= 64)
                storeFatal(kind, "corrupt trace store ", path,
                           ": oversized varint in ", what);
            v |= static_cast<u64>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
            shift += 7;
        }
    }
};

/** Per-field footer entry size: popcount u64 + firstSet/lastSet u32. */
constexpr u64 kFieldMetaBytes = 16;
constexpr u32 kNoSetCycle = 0xffffffffu;

u64
blockFooterBytes(u32 num_fields)
{
    return static_cast<u64>(num_fields) * kFieldMetaBytes + 4;
}

/** Seek + full read; false (with stream cleared) on short read. */
bool
readExact(std::ifstream &in, u64 offset, void *dst, u64 len)
{
    in.clear();
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char *>(dst),
            static_cast<std::streamsize>(len));
    const bool ok = static_cast<bool>(in);
    if (!ok)
        in.clear();
    return ok;
}

/** Merge-union of sorted absolute intervals (start, end pairs). */
std::vector<std::pair<u64, u64>>
mergeIntervals(std::vector<std::pair<u64, u64>> spans)
{
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<u64, u64>> merged;
    for (const auto &[a, b] : spans) {
        if (!merged.empty() && a <= merged.back().second)
            merged.back().second = std::max(merged.back().second, b);
        else
            merged.emplace_back(a, b);
    }
    return merged;
}

/** Intersection of two sorted disjoint interval lists. */
std::vector<std::pair<u64, u64>>
intersectIntervals(const std::vector<std::pair<u64, u64>> &lhs,
                   const std::vector<std::pair<u64, u64>> &rhs)
{
    std::vector<std::pair<u64, u64>> out;
    std::size_t i = 0, j = 0;
    while (i < lhs.size() && j < rhs.size()) {
        const u64 a = std::max(lhs[i].first, rhs[j].first);
        const u64 b = std::min(lhs[i].second, rhs[j].second);
        if (a < b)
            out.emplace_back(a, b);
        if (lhs[i].second < rhs[j].second)
            i++;
        else
            j++;
    }
    return out;
}

} // namespace

const char *
storeErrorKindName(StoreErrorKind kind)
{
    switch (kind) {
      case StoreErrorKind::Io: return "io";
      case StoreErrorKind::Header: return "header";
      case StoreErrorKind::Index: return "index";
      case StoreErrorKind::Block: return "block";
      case StoreErrorKind::DamagedWindow: return "damaged-window";
      case StoreErrorKind::Unrecoverable: return "unrecoverable";
      default: return "?";
    }
}

std::string
StoreDamage::toJson(const std::string &path) const
{
    std::ostringstream os;
    os << "{\n  \"file\": \"" << jsonEscape(path)
       << "\",\n  \"salvaged\": " << (salvaged ? "true" : "false")
       << ",\n  \"clean\": " << (clean() ? "true" : "false")
       << ",\n  \"index_valid\": " << (indexValid ? "true" : "false")
       << ",\n  \"recovered_blocks\": " << recoveredBlocks
       << ",\n  \"recovered_cycles\": " << recoveredCycles
       << ",\n  \"damaged_blocks\": " << damaged.size()
       << ",\n  \"damaged_cycles\": " << damagedCycles
       << ",\n  \"trailing_bytes\": " << trailingBytes
       << ",\n  \"damaged\": [";
    for (std::size_t i = 0; i < damaged.size(); i++) {
        const DamagedBlock &block = damaged[i];
        os << (i ? "," : "") << "\n    {\"block\": " << block.block
           << ", \"start_cycle\": " << block.startCycle
           << ", \"num_cycles\": " << block.numCycles << "}";
    }
    os << (damaged.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

// --------------------------------------------------------- StoreWriter

StoreWriter::StoreWriter(const TraceSpec &spec,
                         const std::string &path, u32 block_cycles)
    : traceSpec(spec), filePath(path),
      out(path, FaultSite::StoreWrite),
      cyclesPerBlock(block_cycles ? block_cycles
                                  : kStoreDefaultBlockCycles)
{
    buffer.reserve(cyclesPerBlock);
    std::string header;
    wire::put32(header, kStoreMagic);
    wire::put32(header, kStoreVersion);
    wire::put32(header, traceSpec.numFields());
    wire::put32(header, cyclesPerBlock);
    for (const TraceField &field : traceSpec.fields) {
        wire::put32(header, static_cast<u32>(field.event));
        wire::put32(header, field.lane);
    }
    // v2: the header guards itself, so salvage can tell "damaged
    // data" apart from "untrustworthy spec".
    wire::put32(header, crc32(header.data(), header.size()));
    out.append(header);
}

StoreWriter::~StoreWriter()
{
    // Seal on destruction so scope-exit always yields a valid file;
    // errors here surface as warnings (destructors must not throw).
    try {
        finish();
    } catch (const std::exception &err) {
        warn("trace store ", filePath, " not sealed: ", err.what());
    }
}

void
StoreWriter::append(u64 word)
{
    if (sealed)
        fatal("trace store ", filePath,
              ": append after finish()");
    buffer.push_back(word);
    peakBuffered =
        std::max(peakBuffered, static_cast<u32>(buffer.size()));
    totalCycles++;
    if (buffer.size() >= cyclesPerBlock)
        flushBlock(false);
}

void
StoreWriter::flushBlock(bool torn)
{
    const u32 cycles = static_cast<u32>(buffer.size());
    const u32 num_fields = traceSpec.numFields();

    IndexEntry entry;
    entry.offset = out.size();
    entry.startCycle = totalCycles - cycles;
    entry.numCycles = cycles;
    index.push_back(entry);

    // One pass over the words finds every bit transition; runs are
    // then reconstructed per field from its transition cycles. Cost
    // is O(cycles + transitions), not O(cycles x fields) — bursty
    // signals have few transitions.
    std::vector<std::vector<u32>> transitions(num_fields);
    u64 prev = 0;
    for (u32 c = 0; c < cycles; c++) {
        u64 flipped = buffer[c] ^ prev;
        while (flipped) {
            const int f = std::countr_zero(flipped);
            flipped &= flipped - 1;
            if (static_cast<u32>(f) < num_fields)
                transitions[f].push_back(c);
        }
        prev = buffer[c];
    }
    // Close any run still high at the block's end.
    for (u32 f = 0; f < num_fields; f++) {
        if (cycles && (buffer[cycles - 1] >> f) & 1)
            transitions[f].push_back(cycles);
    }

    std::string record;
    wire::put32(record, cycles);
    std::string footer;
    for (u32 f = 0; f < num_fields; f++) {
        const std::vector<u32> &edges = transitions[f];
        // Alternating run lengths, zeros first: the plane starts low
        // (prev = 0), so edges[0] is the initial zeros run (possibly
        // 0), and consecutive edge deltas alternate ones/zeros runs.
        std::string plane;
        u64 popcount = 0;
        if (edges.empty()) {
            wire::putVarint(plane, cycles); // all-zero plane
        } else {
            wire::putVarint(plane, edges[0]);
            for (std::size_t e = 1; e < edges.size(); e++) {
                const u32 run = edges[e] - edges[e - 1];
                wire::putVarint(plane, run);
                if (e % 2 == 1)
                    popcount += run;
            }
            if (edges.back() < cycles)
                wire::putVarint(plane, cycles - edges.back());
        }
        wire::putVarint(record, plane.size());
        record += plane;

        wire::put64(footer, popcount);
        wire::put32(footer, edges.empty() ? kNoSetCycle : edges[0]);
        wire::put32(footer, edges.empty() ? kNoSetCycle : edges.back() - 1);
    }
    record += footer;
    const u32 crc = crc32(record.data(), record.size());
    wire::put32(record, crc);

    // Fault hooks: a bitflip clause corrupts this block's payload
    // after its CRC was computed; a torn final block writes only half
    // its record (a crash mid-block).
    faultPlan().corruptStoreBlock(index.size() - 1, record);
    if (torn)
        out.append(record.data(), record.size() / 2);
    else
        out.append(record);
    buffer.clear();
}

void
StoreWriter::finish()
{
    if (sealed)
        return;
    sealed = true;

    const bool torn = faultPlan().tornFinalStore();
    if (!buffer.empty())
        flushBlock(torn);
    if (torn) {
        // Seal the torn artifact without its index/trailer — exactly
        // what a crash between the data and index writes leaves.
        out.commit();
        return;
    }

    std::string tail;
    const u64 index_offset = out.size();
    wire::put32(tail, static_cast<u32>(index.size()));
    for (const IndexEntry &entry : index) {
        wire::put64(tail, entry.offset);
        wire::put64(tail, entry.startCycle);
        wire::put32(tail, entry.numCycles);
    }
    wire::put64(tail, totalCycles);
    const u32 crc = crc32(tail.data(), tail.size());
    wire::put32(tail, crc);
    wire::put64(tail, index_offset);
    wire::put32(tail, kStoreTrailerMagic);
    out.append(tail);
    out.commit();
}

// --------------------------------------------------------- StoreReader

StoreReader::StoreReader(const std::string &path, StoreOpen open)
    : filePath(path), in(path, std::ios::binary), openMode(open)
{
    if (!in)
        storeFatal(StoreErrorKind::Io, "cannot open trace store: ",
                   path);
    in.seekg(0, std::ios::end);
    fileSize = static_cast<u64>(in.tellg());

    const u64 data_begin = openHeader();
    if (openMode == StoreOpen::Strict)
        openStrict(data_begin);
    else
        openSalvage(data_begin);
}

u64
StoreReader::openHeader()
{
    // A header failure leaves nothing to salvage: without a trusted
    // field table every decoded bit would be misattributed.
    const StoreErrorKind kind = openMode == StoreOpen::Strict
                                    ? StoreErrorKind::Header
                                    : StoreErrorKind::Unrecoverable;

    u32 head[4];
    if (fileSize < sizeof(head))
        storeFatal(kind, "not an Icicle trace store (too short): ",
                   filePath);
    if (!readExact(in, 0, head, sizeof(head)))
        storeFatal(kind, "corrupt trace store ", filePath,
                   ": truncated header");
    if (head[0] != kStoreMagic)
        storeFatal(kind, "not an Icicle trace store: ", filePath);
    if (head[1] == 0 || head[1] > kStoreVersion)
        storeFatal(kind, "unsupported trace store version ", head[1],
                   " in ", filePath);
    formatVersion = head[1];
    const u32 num_fields = head[2];
    cyclesPerBlock = head[3];
    if (num_fields > 64)
        storeFatal(kind, "corrupt trace store ", filePath, ": ",
                   num_fields,
                   " fields (trace bundles are limited to 64 signals)");
    if (cyclesPerBlock == 0)
        storeFatal(kind, "corrupt trace store ", filePath,
                   ": zero block size");

    const u64 table_bytes = static_cast<u64>(num_fields) * 8;
    u64 data_begin = 16 + table_bytes;
    if (formatVersion >= 2)
        data_begin += 4;
    if (fileSize < data_begin)
        storeFatal(kind, "corrupt trace store ", filePath,
                   ": truncated field table");

    std::vector<unsigned char> table(table_bytes);
    if (table_bytes &&
        !readExact(in, 16, table.data(), table_bytes))
        storeFatal(kind, "corrupt trace store ", filePath,
                   ": truncated field table");
    if (formatVersion >= 2) {
        u32 stored_crc;
        if (!readExact(in, 16 + table_bytes, &stored_crc, 4))
            storeFatal(kind, "corrupt trace store ", filePath,
                       ": truncated header CRC");
        Crc32 crc;
        crc.update(head, sizeof(head));
        crc.update(table.data(), table_bytes);
        if (crc.value() != stored_crc)
            storeFatal(kind, "corrupt trace store ", filePath,
                       ": header CRC mismatch");
    }

    for (u32 f = 0; f < num_fields; f++) {
        u32 pair[2];
        std::memcpy(pair, table.data() + static_cast<u64>(f) * 8, 8);
        if (pair[0] >= kNumEvents)
            storeFatal(kind, "corrupt trace store ", filePath,
                       ": field ", f, " has out-of-range event id ",
                       pair[0]);
        if (pair[1] >= kMaxSources)
            storeFatal(kind, "corrupt trace store ", filePath,
                       ": field ", f, " has out-of-range lane ",
                       pair[1]);
        const EventId id = static_cast<EventId>(pair[0]);
        if (traceSpec.indexOf(id, static_cast<u8>(pair[1])) >= 0)
            storeFatal(kind, "corrupt trace store ", filePath,
                       ": field ", f, " duplicates (", eventName(id),
                       ", lane ", pair[1], ")");
        traceSpec.fields.push_back(
            TraceField{id, static_cast<u8>(pair[1])});
    }
    return data_begin;
}

void
StoreReader::loadBlockFooter(BlockMeta &block, u32 block_id,
                             bool strict)
{
    const u32 num_fields = traceSpec.numFields();
    const u64 meta_bytes = blockFooterBytes(num_fields) - 4;
    std::vector<unsigned char> raw(meta_bytes);
    if (meta_bytes &&
        !readExact(in, block.payloadEnd, raw.data(), meta_bytes))
        storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                   filePath, ": truncated block footer");
    ByteCursor meta{raw.data(), raw.size(), 0, filePath.c_str(),
                    StoreErrorKind::Block};
    block.fields.resize(num_fields);
    for (u32 f = 0; f < num_fields; f++) {
        FieldMeta &fm = block.fields[f];
        fm.popcount = meta.get64("block footer");
        fm.firstSet = meta.get32("block footer");
        fm.lastSet = meta.get32("block footer");
        if (fm.popcount > block.numCycles) {
            if (strict)
                storeFatal(StoreErrorKind::Block,
                           "corrupt trace store ", filePath,
                           ": block ", block_id, " field ", f,
                           " popcount ", fm.popcount, " exceeds ",
                           block.numCycles, " cycles");
            block.damaged = true;
            block.fields.assign(num_fields, FieldMeta{});
            return;
        }
    }
}

bool
StoreReader::loadIndexedBlocks(u64 data_begin, bool strict)
{
    const auto bad = [&](const auto &...args) -> bool {
        if (strict)
            storeFatal(StoreErrorKind::Index, args...);
        return false;
    };

    // ---- trailer + footer index ----
    if (fileSize < data_begin + 12)
        return bad("corrupt trace store ", filePath,
                   ": truncated trailer");
    unsigned char trailer[12];
    if (!readExact(in, fileSize - 12, trailer, 12))
        return bad("corrupt trace store ", filePath,
                   ": truncated trailer");
    u64 index_offset;
    u32 trailer_magic;
    std::memcpy(&index_offset, trailer, 8);
    std::memcpy(&trailer_magic, trailer + 8, 4);
    if (trailer_magic != kStoreTrailerMagic)
        return bad("corrupt trace store ", filePath,
                   ": bad trailer magic (file truncated or not "
                   "sealed)");
    if (index_offset < data_begin || index_offset >= fileSize - 12)
        return bad("corrupt trace store ", filePath,
                   ": bad index offset");
    const u64 index_bytes = fileSize - 12 - index_offset;
    std::vector<unsigned char> index_raw(index_bytes);
    if (!readExact(in, index_offset, index_raw.data(), index_bytes))
        return bad("corrupt trace store ", filePath,
                   ": truncated footer index");
    if (index_bytes < 4 + 8 + 4)
        return bad("corrupt trace store ", filePath,
                   ": footer index too small");
    u32 stored_crc;
    std::memcpy(&stored_crc, index_raw.data() + index_bytes - 4, 4);
    if (crc32(index_raw.data(), index_bytes - 4) != stored_crc)
        return bad("corrupt trace store ", filePath,
                   ": footer index CRC mismatch");

    const u32 num_fields = traceSpec.numFields();
    ByteCursor cur{index_raw.data(), index_bytes - 4, 0,
                   filePath.c_str(), StoreErrorKind::Index};
    const u32 num_blocks = cur.get32("footer index");
    const u64 footer_bytes = blockFooterBytes(num_fields);
    blocks.resize(num_blocks);
    for (u32 b = 0; b < num_blocks; b++) {
        BlockMeta &block = blocks[b];
        block.offset = cur.get64("footer index");
        block.startCycle = cur.get64("footer index");
        block.numCycles = cur.get32("footer index");
        if (block.numCycles == 0 || block.numCycles > cyclesPerBlock)
            return bad("corrupt trace store ", filePath, ": block ",
                       b, " has bad cycle count ", block.numCycles);
        const u64 expected_start =
            static_cast<u64>(b) * cyclesPerBlock;
        if (block.startCycle != expected_start)
            return bad("corrupt trace store ", filePath, ": block ",
                       b, " starts at cycle ", block.startCycle,
                       ", expected ", expected_start);
        if (b + 1 < num_blocks && block.numCycles != cyclesPerBlock)
            return bad("corrupt trace store ", filePath,
                       ": interior block ", b, " is short");
    }
    totalCycles = cur.get64("footer index");
    const u64 tallied = num_blocks == 0
                            ? 0
                            : blocks.back().startCycle +
                                  blocks.back().numCycles;
    if (totalCycles != tallied)
        return bad("corrupt trace store ", filePath,
                   ": index claims ", totalCycles,
                   " cycles but blocks cover ", tallied);

    // ---- per-block footers (popcounts, first/last-set, bounds) ----
    std::vector<unsigned char> record;
    for (u32 b = 0; b < num_blocks; b++) {
        BlockMeta &block = blocks[b];
        const u64 block_end =
            b + 1 < num_blocks ? blocks[b + 1].offset : index_offset;
        if (block.offset < data_begin ||
            block.offset + 4 + footer_bytes > block_end)
            return bad("corrupt trace store ", filePath, ": block ",
                       b, " record is too small");
        block.payloadEnd = block_end - footer_bytes;
        if (strict) {
            // Strict open trusts block CRCs lazily (checked when the
            // block is first decoded), exactly as before.
            loadBlockFooter(block, b, true);
            continue;
        }
        // Salvage: verify every block's CRC up front so the damage
        // mask is complete at open.
        const u64 record_bytes = block_end - block.offset;
        record.resize(record_bytes);
        if (!readExact(in, block.offset, record.data(), record_bytes))
            return bad("corrupt trace store ", filePath,
                       ": truncated block ", b);
        u32 block_crc;
        std::memcpy(&block_crc, record.data() + record_bytes - 4, 4);
        if (crc32(record.data(), record_bytes - 4) != block_crc) {
            block.damaged = true;
            block.fields.assign(num_fields, FieldMeta{});
        } else {
            loadBlockFooter(block, b, false);
        }
    }
    return true;
}

void
StoreReader::scanBlocks(u64 data_begin)
{
    // No trustworthy index: walk block records from the front and
    // keep every one whose framing parses and CRC verifies. The scan
    // stops at the first damaged record — framing beyond a corrupt
    // record cannot be trusted — so this path recovers the CRC-valid
    // prefix (the whole data section for a torn/unsealed file).
    const u32 num_fields = traceSpec.numFields();
    const u64 footer_bytes = blockFooterBytes(num_fields);
    std::vector<unsigned char> raw(fileSize);
    if (fileSize && !readExact(in, 0, raw.data(), fileSize))
        storeFatal(StoreErrorKind::Io, "cannot read trace store: ",
                   filePath);

    const auto try_varint = [&](u64 &pos, u64 &value) -> bool {
        value = 0;
        u32 shift = 0;
        for (;;) {
            if (pos >= fileSize || shift >= 64)
                return false;
            const unsigned char byte = raw[pos++];
            value |= static_cast<u64>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return true;
            shift += 7;
        }
    };

    u64 pos = data_begin;
    while (true) {
        const u64 record_start = pos;
        if (record_start + 4 > fileSize)
            break;
        u32 cycles;
        std::memcpy(&cycles, raw.data() + record_start, 4);
        if (cycles == 0 || cycles > cyclesPerBlock)
            break;
        u64 p = record_start + 4;
        bool framed = true;
        for (u32 f = 0; f < num_fields && framed; f++) {
            u64 plane_bytes;
            if (!try_varint(p, plane_bytes) ||
                plane_bytes > fileSize - p)
                framed = false;
            else
                p += plane_bytes;
        }
        if (!framed || footer_bytes > fileSize - p)
            break;
        const u64 payload_end = p;
        const u64 record_end = p + footer_bytes;
        u32 stored_crc;
        std::memcpy(&stored_crc, raw.data() + record_end - 4, 4);
        const bool crc_ok =
            crc32(raw.data() + record_start,
                  record_end - 4 - record_start) == stored_crc;

        BlockMeta block;
        block.offset = record_start;
        block.payloadEnd = payload_end;
        block.startCycle =
            static_cast<u64>(blocks.size()) * cyclesPerBlock;
        block.numCycles = cycles;
        block.damaged = !crc_ok;
        if (crc_ok) {
            loadBlockFooter(block, static_cast<u32>(blocks.size()),
                            false);
        } else {
            block.fields.assign(num_fields, FieldMeta{});
        }
        const bool done = !crc_ok || cycles < cyclesPerBlock;
        blocks.push_back(std::move(block));
        pos = record_end;
        if (done)
            break;
    }
    damageInfo.trailingBytes = fileSize - pos;
    totalCycles = blocks.empty()
                      ? 0
                      : blocks.back().startCycle +
                            blocks.back().numCycles;
}

void
StoreReader::openStrict(u64 data_begin)
{
    loadIndexedBlocks(data_begin, true);
    damageInfo.recoveredBlocks = blocks.size();
    damageInfo.recoveredCycles = totalCycles;
}

void
StoreReader::openSalvage(u64 data_begin)
{
    damageInfo.salvaged = true;
    if (!loadIndexedBlocks(data_begin, false)) {
        damageInfo.indexValid = false;
        blocks.clear();
        totalCycles = 0;
        scanBlocks(data_begin);
    }
    for (u32 b = 0; b < blocks.size(); b++) {
        const BlockMeta &block = blocks[b];
        if (block.damaged) {
            damageInfo.damaged.push_back(StoreDamage::DamagedBlock{
                b, block.startCycle, block.numCycles});
            damageInfo.damagedCycles += block.numCycles;
        } else {
            damageInfo.recoveredBlocks++;
            damageInfo.recoveredCycles += block.numCycles;
        }
    }
}

void
StoreReader::requireIntact(u64 begin, u64 end, const char *what) const
{
    if (damageInfo.damaged.empty() || begin >= end || blocks.empty())
        return;
    for (u32 b = blockOf(begin); b <= blockOf(end - 1); b++) {
        if (!blocks[b].damaged)
            continue;
        storeFatal(StoreErrorKind::DamagedWindow, what, ": cycles [",
                   begin, ", ", end, ") of ", filePath,
                   " overlap damaged block ", b,
                   " (cycles ", blocks[b].startCycle, "..",
                   blocks[b].startCycle + blocks[b].numCycles,
                   "); consult damage() for intact windows");
    }
}

u32
StoreReader::blockOf(u64 cycle) const
{
    // Every block except the last holds exactly cyclesPerBlock
    // cycles (enforced at open), so the block index is a division.
    return static_cast<u32>(
        std::min<u64>(cycle / cyclesPerBlock, blocks.size() - 1));
}

std::shared_ptr<const StoreReader::DecodedBlock>
StoreReader::decodeBlock(u32 block_index) const
{
    // The lock spans cache probe, file read, and cache install: the
    // shared ifstream's seek+read must not interleave across
    // threads. Callers receive a shared_ptr, so a block one thread
    // is still iterating survives another thread's eviction.
    LockGuard lock(ioMutex);
    for (auto it = cache.begin(); it != cache.end(); ++it) {
        if ((*it)->blockIndex != block_index)
            continue;
        std::rotate(cache.begin(), it, it + 1);
        return cache.front();
    }
    if (cache.size() == kDecodeCacheBlocks)
        cache.pop_back();

    const BlockMeta &block = blocks[block_index];
    if (block.damaged)
        storeFatal(StoreErrorKind::DamagedWindow,
                   "corrupt trace store ", filePath, ": block ",
                   block_index, " is damaged");
    const u64 record_bytes = block.payloadEnd +
                             blockFooterBytes(traceSpec.numFields()) -
                             block.offset;
    std::vector<unsigned char> raw(record_bytes);
    if (!readExact(in, block.offset, raw.data(), record_bytes))
        storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                   filePath, ": truncated block ", block_index);
    u32 stored_crc;
    std::memcpy(&stored_crc, raw.data() + record_bytes - 4, 4);
    if (crc32(raw.data(), record_bytes - 4) != stored_crc)
        storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                   filePath, ": block ", block_index,
                   " CRC mismatch");

    ByteCursor cur{raw.data(), record_bytes - 4, 0, filePath.c_str(),
                   StoreErrorKind::Block};
    const u32 cycles = cur.get32("block");
    if (cycles != block.numCycles)
        storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                   filePath, ": block ", block_index,
                   " cycle count disagrees with index");

    auto decoded = std::make_shared<DecodedBlock>();
    decoded->planes.assign(traceSpec.numFields(), {});
    for (u32 f = 0; f < traceSpec.numFields(); f++) {
        const u64 plane_bytes = cur.getVarint("block plane");
        cur.need(plane_bytes, "block plane");
        ByteCursor plane{raw.data() + cur.pos, plane_bytes, 0,
                         filePath.c_str(), StoreErrorKind::Block};
        cur.pos += plane_bytes;
        u64 at = 0;
        bool ones = false;
        while (at < cycles) {
            const u64 run = plane.getVarint("block plane run");
            if (run > cycles - at)
                storeFatal(StoreErrorKind::Block,
                           "corrupt trace store ", filePath,
                           ": block ", block_index, " field ", f,
                           " runs exceed the block");
            if (ones && run)
                decoded->planes[f].push_back(SetInterval{
                    static_cast<u32>(at), static_cast<u32>(run)});
            at += run;
            ones = !ones;
        }
        if (plane.pos != plane.size)
            storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                       filePath, ": block ", block_index, " field ",
                       f, " has trailing bytes");
    }
    decoded->blockIndex = block_index;
    cache.insert(cache.begin(), decoded);
    decodedBlocks.fetch_add(1, std::memory_order_relaxed);
    return decoded;
}

u64
StoreReader::countPlaneInRange(const std::vector<SetInterval> &plane,
                               u32 lo, u32 hi) const
{
    u64 total = 0;
    for (const SetInterval &iv : plane) {
        const u32 a = std::max(lo, iv.start);
        const u32 b = std::min(hi, iv.start + iv.length);
        if (a < b)
            total += b - a;
    }
    return total;
}

Trace
StoreReader::readAll() const
{
    return readWindow(0, totalCycles);
}

Trace
StoreReader::readWindow(u64 begin, u64 end) const
{
    Trace trace(traceSpec);
    end = std::min(end, totalCycles);
    if (begin >= end)
        return trace;
    requireIntact(begin, end, "StoreReader::readWindow");
    std::vector<u64> words;
    for (u32 b = blockOf(begin); b <= blockOf(end - 1); b++) {
        const BlockMeta &block = blocks[b];
        const u64 lo = std::max(begin, block.startCycle);
        const u64 hi =
            std::min(end, block.startCycle + block.numCycles);
        const auto decoded = decodeBlock(b);
        words.assign(hi - lo, 0);
        for (u32 f = 0; f < traceSpec.numFields(); f++) {
            for (const SetInterval &iv : decoded->planes[f]) {
                const u64 a = std::max(
                    lo, block.startCycle + iv.start);
                const u64 z = std::min(
                    hi, block.startCycle + iv.start + iv.length);
                for (u64 c = a; c < z; c++)
                    words[c - lo] |= 1ull << f;
            }
        }
        for (u64 word : words)
            trace.append(word);
    }
    return trace;
}

u64
StoreReader::count(EventId event, u8 lane) const
{
    const int field = traceSpec.indexOf(event, lane);
    if (field < 0)
        return 0;
    u64 total = 0;
    // Damaged blocks carry zeroed footers, so salvage aggregates
    // naturally count only recovered cycles.
    for (const BlockMeta &block : blocks)
        total += block.fields[static_cast<u32>(field)].popcount;
    return total;
}

u64
StoreReader::countAllLanes(EventId event) const
{
    u64 total = 0;
    for (u32 f = 0; f < traceSpec.numFields(); f++) {
        if (traceSpec.fields[f].event != event)
            continue;
        for (const BlockMeta &block : blocks)
            total += block.fields[f].popcount;
    }
    return total;
}

u64
StoreReader::countInWindow(EventId event, u64 begin, u64 end) const
{
    end = std::min(end, totalCycles);
    if (begin >= end)
        return 0;
    requireIntact(begin, end, "StoreReader::countInWindow");
    const u64 mask = traceSpec.fieldMask(event);
    if (mask == 0)
        return 0;
    u64 total = 0;
    for (u64 n : fieldCountsInWindow(begin, end, mask))
        total += n;
    return total;
}

std::vector<u64>
StoreReader::fieldCountsInWindow(u64 begin, u64 end,
                                 u64 field_mask) const
{
    const u32 num_fields = traceSpec.numFields();
    std::vector<u64> counts(num_fields, 0);
    for (u32 b = blockOf(begin); b <= blockOf(end - 1); b++) {
        const BlockMeta &block = blocks[b];
        const u64 block_end = block.startCycle + block.numCycles;
        const u64 lo = std::max(begin, block.startCycle);
        const u64 hi = std::min(end, block_end);
        const bool covered =
            lo == block.startCycle && hi == block_end;
        // Fully covered blocks are served from footer popcounts;
        // boundary blocks whose fields are all-zero or saturated
        // short-circuit too. Only the rest decode, once.
        std::shared_ptr<const DecodedBlock> decoded;
        for (u32 f = 0; f < num_fields; f++) {
            if (!(field_mask >> f & 1))
                continue;
            const FieldMeta &fm = block.fields[f];
            if (covered) {
                counts[f] += fm.popcount;
            } else if (fm.popcount == block.numCycles) {
                counts[f] += hi - lo;
            } else if (fm.popcount != 0) {
                if (!decoded)
                    decoded = decodeBlock(b);
                counts[f] += countPlaneInRange(
                    decoded->planes[f],
                    static_cast<u32>(lo - block.startCycle),
                    static_cast<u32>(hi - block.startCycle));
            }
        }
    }
    return counts;
}

TmaResult
StoreReader::windowTma(u64 begin, u64 end, u32 core_width) const
{
    TmaParams params;
    params.coreWidth = core_width;
    return windowTma(begin, end, params);
}

TmaResult
StoreReader::windowTma(u64 begin, u64 end,
                       const TmaParams &params) const
{
    end = clampTraceWindow(totalCycles, begin, end,
                           "StoreReader::windowTma");
    requireIntact(begin, end, "StoreReader::windowTma");

    static constexpr EventId kEvents[] = {
        EventId::UopsRetired,      EventId::InstRetired,
        EventId::UopsIssued,       EventId::InstIssued,
        EventId::FetchBubbles,     EventId::Recovering,
        EventId::BranchMispredict, EventId::Flush,
        EventId::FenceRetired,     EventId::ICacheBlocked,
        EventId::DCacheBlocked};
    u64 mask = 0;
    for (EventId event : kEvents)
        mask |= traceSpec.fieldMask(event);
    const std::vector<u64> fields =
        fieldCountsInWindow(begin, end, mask);

    TmaCounters counters;
    counters.cycles = end - begin;
    auto count_in = [&](EventId event) {
        const u64 event_mask = traceSpec.fieldMask(event);
        u64 total = 0;
        for (u32 f = 0; f < fields.size(); f++)
            total += event_mask >> f & 1 ? fields[f] : 0;
        return total;
    };
    counters.retiredUops = count_in(EventId::UopsRetired) +
                           count_in(EventId::InstRetired);
    counters.issuedUops = count_in(EventId::UopsIssued) +
                          count_in(EventId::InstIssued);
    counters.fetchBubbles = count_in(EventId::FetchBubbles);
    counters.recovering = count_in(EventId::Recovering);
    counters.branchMispredicts = count_in(EventId::BranchMispredict);
    counters.machineClears = count_in(EventId::Flush);
    counters.fencesRetired = count_in(EventId::FenceRetired);
    counters.icacheBlocked = count_in(EventId::ICacheBlocked);
    counters.dcacheBlocked = count_in(EventId::DCacheBlocked);

    return computeTma(counters, params);
}

std::vector<SignalRun>
StoreReader::runsOfAny(EventId event) const
{
    std::vector<SignalRun> runs;
    std::vector<u32> fields;
    for (u32 f = 0; f < traceSpec.numFields(); f++) {
        if (traceSpec.fields[f].event == event)
            fields.push_back(f);
    }
    if (fields.empty())
        return runs;

    bool in_run = false;
    u64 run_start = 0, run_end = 0;
    auto feed = [&](u64 a, u64 b) {
        if (in_run && a == run_end) {
            run_end = b;
            return;
        }
        if (in_run)
            runs.push_back(SignalRun{run_start, run_end - run_start});
        run_start = a;
        run_end = b;
        in_run = true;
    };

    for (u32 b = 0; b < blocks.size(); b++) {
        const BlockMeta &block = blocks[b];
        if (block.damaged)
            continue; // salvage: damaged span reads as a gap
        u64 pop_sum = 0;
        bool saturated = false;
        for (u32 f : fields) {
            pop_sum += block.fields[f].popcount;
            saturated |=
                block.fields[f].popcount == block.numCycles;
        }
        if (pop_sum == 0)
            continue; // all-zero block: extends the gap, no decode
        if (saturated) {
            // Some lane is high every cycle: the whole block is one
            // run of the OR, no decode needed.
            feed(block.startCycle,
                 block.startCycle + block.numCycles);
            continue;
        }
        // Union the per-lane set intervals of this block.
        const auto decoded = decodeBlock(b);
        std::vector<std::pair<u64, u64>> spans;
        for (u32 f : fields) {
            for (const SetInterval &iv : decoded->planes[f])
                spans.emplace_back(
                    block.startCycle + iv.start,
                    block.startCycle + iv.start + iv.length);
        }
        for (const auto &[a, z] : mergeIntervals(std::move(spans)))
            feed(a, z);
    }
    if (in_run)
        runs.push_back(SignalRun{run_start, run_end - run_start});
    return runs;
}

RecoveryCdf
StoreReader::recoveryCdf() const
{
    RecoveryCdf cdf;
    for (const SignalRun &run : runsOfAny(EventId::Recovering))
        cdf.lengths.push_back(run.length);
    std::sort(cdf.lengths.begin(), cdf.lengths.end());
    return cdf;
}

OverlapBound
StoreReader::overlapUpperBound(u32 core_width, u32 pad) const
{
    OverlapBound result;
    const u64 cycles = totalCycles;
    result.cycles = cycles;
    if (cycles == 0)
        return result;

    const std::vector<SignalRun> refills =
        runsOfAny(EventId::ICacheBlocked);
    const std::vector<SignalRun> recoveries =
        runsOfAny(EventId::Recovering);

    auto padded = [&](const std::vector<SignalRun> &signal_runs) {
        std::vector<std::pair<u64, u64>> spans;
        spans.reserve(signal_runs.size());
        for (const SignalRun &run : signal_runs) {
            const u64 a = run.start > pad ? run.start - pad : 0;
            const u64 z =
                std::min(cycles, run.start + run.length + pad);
            spans.emplace_back(a, z);
        }
        return mergeIntervals(std::move(spans));
    };

    // Overlap windows are where a padded refill window and a padded
    // recovery window coincide — interval intersection instead of
    // the analyzer's per-cycle flag arrays.
    const std::vector<std::pair<u64, u64>> overlap =
        intersectIntervals(padded(refills), padded(recoveries));

    u64 overlap_slots = 0;
    for (const auto &[a, z] : overlap)
        overlap_slots += countInWindow(EventId::FetchBubbles, a, z);
    const u64 bubble_slots = countAllLanes(EventId::FetchBubbles);
    u64 recovering_cycles = 0;
    for (const SignalRun &run : recoveries)
        recovering_cycles += run.length;

    const double total_slots =
        static_cast<double>(cycles) * core_width;
    result.overlapSlots = overlap_slots;
    result.overlapFraction =
        static_cast<double>(overlap_slots) / total_slots;
    result.frontendFraction =
        static_cast<double>(bubble_slots) / total_slots;
    result.badSpecFraction =
        static_cast<double>(recovering_cycles) * core_width /
        total_slots;
    if (result.frontendFraction > 0) {
        result.frontendPerturbation =
            result.overlapFraction / result.frontendFraction;
    }
    if (result.badSpecFraction > 0) {
        result.badSpecPerturbation =
            result.overlapFraction / result.badSpecFraction;
    }
    return result;
}

void
StoreReader::verify() const
{
    LockGuard lock(ioMutex);
    std::vector<unsigned char> raw;
    for (u32 b = 0; b < blocks.size(); b++) {
        const BlockMeta &block = blocks[b];
        if (block.damaged)
            storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                       filePath, ": block ", b, " CRC mismatch");
        const u64 record_bytes =
            block.payloadEnd +
            blockFooterBytes(traceSpec.numFields()) - block.offset;
        raw.resize(record_bytes);
        if (!readExact(in, block.offset, raw.data(), record_bytes))
            storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                       filePath, ": truncated block ", b);
        u32 stored_crc;
        std::memcpy(&stored_crc, raw.data() + record_bytes - 4, 4);
        if (crc32(raw.data(), record_bytes - 4) != stored_crc)
            storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                       filePath, ": block ", b, " CRC mismatch");
    }
    if (!damageInfo.clean())
        storeFatal(StoreErrorKind::Block, "corrupt trace store ",
                   filePath, ": salvaged container is incomplete (",
                   damageInfo.damaged.size(), " damaged blocks, ",
                   damageInfo.trailingBytes, " trailing bytes)");
}

u64
StoreReader::writeRepaired(const std::string &path) const
{
    StoreWriter writer(traceSpec, path, cyclesPerBlock);
    for (u32 b = 0; b < blocks.size(); b++) {
        const BlockMeta &block = blocks[b];
        if (block.damaged)
            continue;
        const Trace window = readWindow(
            block.startCycle, block.startCycle + block.numCycles);
        for (u64 word : window.raw())
            writer.append(word);
    }
    writer.finish();
    return writer.cyclesWritten();
}

void
StoreReader::forEachCycleWord(
    u64 begin, u64 end,
    const std::function<void(u64, u64)> &fn) const
{
    end = std::min(end, totalCycles);
    if (begin >= end)
        return;
    for (u32 b = blockOf(begin); b <= blockOf(end - 1); b++) {
        const BlockMeta &block = blocks[b];
        const u64 lo = std::max(begin, block.startCycle);
        const u64 hi =
            std::min(end, block.startCycle + block.numCycles);
        const Trace window = readWindow(lo, hi);
        const std::vector<u64> &words = window.raw();
        for (u64 c = 0; c < words.size(); c++)
            fn(lo + c, words[c]);
    }
}

// ------------------------------------------- Trace <-> store bridging

void
Trace::toStore(const std::string &path, u32 block_cycles) const
{
    StoreWriter writer(traceSpec, path,
                       block_cycles ? block_cycles
                                    : kStoreDefaultBlockCycles);
    for (u64 word : records)
        writer.append(word);
    writer.finish();
}

Trace
Trace::fromStore(const std::string &path)
{
    return StoreReader(path).readAll();
}

u64
streamTraceToStore(Core &core, const TraceSpec &spec, u64 max_cycles,
                   const std::string &path, u32 block_cycles)
{
    StoreWriter writer(spec, path, block_cycles);
    return streamTraceRun(core, spec, max_cycles, writer);
}

} // namespace icicle
