/**
 * @file
 * The RNG-draw-order contract behind the MNM_OVERLAP stage decoupling,
 * proven per workload: every producer schedule -- single-step next(),
 * bounded instruction batches, the fused request producer, and the
 * request pipeline's producer thread and software-pipelined slices --
 * must emit bit-for-bit the same stream. All twenty named workloads run
 * through every axis; a divergence reports the first divergent index
 * so a generator regression points at the exact draw that broke. The
 * first 20k records and requests of each workload are also pinned by
 * digest, so a change that moves every schedule alike fails too.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/batch_pipeline.hh"
#include "trace/request_batch.hh"
#include "trace/spec2000.hh"
#include "trace/synthetic.hh"

namespace mnm
{
namespace
{

/** Long enough to cross several batch boundaries (capacity 4096) and
 *  land an odd remainder in the final slice, short enough that 20
 *  workloads x all axes stay test-suite fast. */
constexpr std::uint64_t stream_instructions =
    2 * InstructionBatch::capacity + 1337;

/** L1I-like line size for the request-derivation axes. */
constexpr unsigned fetch_block_bits = 6;

std::vector<Instruction>
collectSingleStep(WorkloadGenerator &workload, std::uint64_t n)
{
    std::vector<Instruction> out(n);
    for (std::uint64_t i = 0; i < n; ++i)
        workload.next(out[i]);
    return out;
}

std::vector<Instruction>
collectBatched(WorkloadGenerator &workload, std::uint64_t n,
               std::uint64_t window)
{
    std::vector<Instruction> out;
    out.reserve(n);
    InstructionBatch batch;
    while (out.size() < n) {
        workload.nextBatch(batch, std::min<std::uint64_t>(
                                      n - out.size(), window));
        out.insert(out.end(), batch.records, batch.records + batch.size);
    }
    return out;
}

/** Field-exact comparison, reporting the first divergent instruction
 *  index (the generator draws in instruction order, so the first
 *  divergent instruction pins the first divergent draw). */
void
expectSameInstructions(const std::vector<Instruction> &got,
                       const std::vector<Instruction> &want,
                       const std::string &axis)
{
    ASSERT_EQ(got.size(), want.size()) << axis;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Instruction &g = got[i];
        const Instruction &w = want[i];
        const bool same = g.pc == w.pc && g.cls == w.cls &&
                          g.mem_addr == w.mem_addr && g.dep1 == w.dep1 &&
                          g.dep2 == w.dep2 &&
                          g.exec_latency == w.exec_latency &&
                          g.mispredicted == w.mispredicted;
        ASSERT_TRUE(same)
            << axis << ": first divergent instruction index " << i
            << " (pc " << std::hex << g.pc << " vs " << w.pc
            << std::dec << ")";
    }
}

struct RequestStream
{
    std::vector<Addr> addr;
    std::vector<std::uint8_t> kind;
    std::uint64_t instructions = 0;
    std::uint64_t fetch_requests = 0;
    std::uint64_t data_requests = 0;

    void
    append(const RequestBatch &batch)
    {
        addr.insert(addr.end(), batch.addr, batch.addr + batch.size);
        kind.insert(kind.end(), batch.kind, batch.kind + batch.size);
        instructions += batch.instructions;
        fetch_requests += batch.fetch_requests;
        data_requests += batch.data_requests;
    }
};

void
expectSameRequests(const RequestStream &got, const RequestStream &want,
                   const std::string &axis)
{
    EXPECT_EQ(got.instructions, want.instructions) << axis;
    EXPECT_EQ(got.fetch_requests, want.fetch_requests) << axis;
    EXPECT_EQ(got.data_requests, want.data_requests) << axis;
    ASSERT_EQ(got.addr.size(), want.addr.size()) << axis;
    for (std::size_t i = 0; i < got.addr.size(); ++i) {
        ASSERT_TRUE(got.addr[i] == want.addr[i] &&
                    got.kind[i] == want.kind[i])
            << axis << ": first divergent request index " << i;
    }
}

class StreamIdentityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(StreamIdentityTest, PipelineSchedulesMatchSingleStep)
{
    // next() one instruction at a time is the reference schedule. The
    // instruction-record consumers left -- the timing cores -- pull
    // bounded nextBatch refills of refill_window records; full batches
    // cover the other end of the window range. Both must replay the
    // reference exactly across batch boundaries and a ragged tail.
    auto reference = makeSpecWorkload(GetParam());
    const std::vector<Instruction> want =
        collectSingleStep(*reference, stream_instructions);

    for (std::uint64_t window :
         {refill_window, std::uint64_t{InstructionBatch::capacity}}) {
        auto workload = makeSpecWorkload(GetParam());
        expectSameInstructions(
            collectBatched(*workload, stream_instructions, window), want,
            window == refill_window ? "refill-window batches"
                                    : "full batches");
    }
}

TEST_P(StreamIdentityTest, FusedRequestsMatchDerivedRequests)
{
    // The fused generate+derive producer (SyntheticWorkload's
    // nextRequests override) against deriving from full instruction
    // batches (the base-class path), across several batches so the
    // carried state -- rng and fetch-dedup line -- is covered too.
    auto batch_workload = makeSpecWorkload(GetParam());
    RequestStream want;
    {
        InstructionBatch scratch;
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch derived;
        std::uint64_t remaining = stream_instructions;
        while (remaining > 0) {
            batch_workload->nextBatch(scratch, remaining);
            derived.clear();
            deriveRequests(derived, dedup, scratch);
            want.append(derived);
            remaining -= scratch.size;
        }
    }

    auto fused_workload = makeSpecWorkload(GetParam());
    RequestStream got;
    {
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch batch;
        std::uint64_t remaining = stream_instructions;
        while (remaining > 0) {
            fused_workload->nextRequests(batch, dedup, remaining);
            got.append(batch);
            remaining -= batch.instructions;
        }
    }
    expectSameRequests(got, want, "fused nextRequests");

    // And mid-stream interchangeability: alternating the two producers
    // on one generator must still replay the reference stream -- the
    // fused producer leaves the rng and dedup state exactly where the
    // derive-from-batch path would.
    auto mixed_workload = makeSpecWorkload(GetParam());
    RequestStream mixed;
    {
        InstructionBatch scratch;
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch batch;
        std::uint64_t remaining = stream_instructions;
        bool fused = true;
        while (remaining > 0) {
            // Ragged windows so the switchovers land mid-batch.
            const std::uint64_t window =
                std::min<std::uint64_t>(remaining, fused ? 1000 : 700);
            if (fused) {
                mixed_workload->nextRequests(batch, dedup, window);
                mixed.append(batch);
                remaining -= batch.instructions;
            } else {
                mixed_workload->nextBatch(scratch, window);
                batch.clear();
                deriveRequests(batch, dedup, scratch);
                mixed.append(batch);
                remaining -= scratch.size;
            }
            fused = !fused;
        }
    }
    expectSameRequests(mixed, want, "alternating producers");
}

TEST_P(StreamIdentityTest, RequestPipelineSchedulesMatchSynchronous)
{
    // The fused request stream through both pipeline schedules against
    // the synchronous fill loop: the handoff (thread or slice) must
    // not move a single draw.
    auto reference = makeSpecWorkload(GetParam());
    RequestStream want;
    {
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch batch;
        std::uint64_t remaining = stream_instructions;
        while (remaining > 0) {
            reference->nextRequests(batch, dedup, remaining);
            want.append(batch);
            remaining -= batch.instructions;
        }
    }

    for (PipelineMode mode :
         {PipelineMode::Threaded, PipelineMode::Sliced}) {
        auto workload = makeSpecWorkload(GetParam());
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestStream got;
        {
            RequestPipeline pipeline(*workload, dedup,
                                     stream_instructions, mode);
            while (const RequestBatch *batch = pipeline.acquire())
                got.append(*batch);
        }
        expectSameRequests(got, want,
                           mode == PipelineMode::Threaded
                               ? "threaded request pipeline"
                               : "sliced request pipeline");
        // The borrowed dedup state must land where the synchronous
        // producer leaves it (the simulator's fetch line carries
        // run-to-run).
        EXPECT_NE(dedup.cur_line, invalid_addr);
    }
}

/** FNV-1a over 64-bit words, a byte at a time. */
void
fold(std::uint64_t &h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 1099511628211ull;
    }
}

std::uint64_t
digestInstructions(const std::vector<Instruction> &records)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Instruction &inst : records) {
        fold(h, inst.pc);
        fold(h, inst.mem_addr);
        fold(h, static_cast<std::uint64_t>(inst.cls));
        fold(h, inst.dep1);
        fold(h, inst.dep2);
        fold(h, inst.exec_latency);
        fold(h, inst.mispredicted);
    }
    return h;
}

std::uint64_t
digestRequests(const RequestStream &stream)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < stream.addr.size(); ++i) {
        fold(h, stream.addr[i]);
        fold(h, stream.kind[i]);
    }
    fold(h, stream.instructions);
    fold(h, stream.fetch_requests);
    fold(h, stream.data_requests);
    return h;
}

/** Digests of the first pinned_instructions of each workload: its
 *  records (through next() and through nextBatch()) and its requests
 *  (through nextRequests()). */
struct PinnedStream
{
    std::uint64_t records;
    std::uint64_t requests;
};

constexpr std::uint64_t pinned_instructions = 20000;

const std::map<std::string, PinnedStream> &
pinnedStreams()
{
    static const std::map<std::string, PinnedStream> table = {
        {"164.gzip", {0xf8e050d53cd4d00dull, 0x4914f15a46408a46ull}},
        {"168.wupwise", {0x88e89908100f2654ull, 0xcfe360f9fd53276aull}},
        {"171.swim", {0xd6cf2f23a9b54e6aull, 0x4b8ddbdbd5d785b9ull}},
        {"172.mgrid", {0xd65005fae0b68594ull, 0xef6b5e079b0b1675ull}},
        {"173.applu", {0xad694460fd2bffc4ull, 0x5096f669238a26c5ull}},
        {"175.vpr", {0x31ce8b02dbdda933ull, 0x99a29bf276c5f4c9ull}},
        {"176.gcc", {0xd705299b6d3434f8ull, 0x588b1335791afa53ull}},
        {"177.mesa", {0x1a67b804645f70a3ull, 0x8678a9d8db996d51ull}},
        {"179.art", {0xe72f7269b9736d77ull, 0xee6d12801d5b2926ull}},
        {"181.mcf", {0xeb44d87be0e25f0dull, 0xf30c492613652f46ull}},
        {"183.equake", {0x59e5e3b9fb443399ull, 0x6c28699829b6a71eull}},
        {"186.crafty", {0xaec0d1a2b73de058ull, 0x5534c7c5f5894f81ull}},
        {"188.ammp", {0x952093578bb78defull, 0xca0d1864dbad06bcull}},
        {"197.parser", {0x3a7b0de0c1dd1e6aull, 0xc2ada11cfbb3dc7bull}},
        {"200.sixtrack", {0x8402fb86b7924c80ull, 0x307cf503efd9caddull}},
        {"252.eon", {0x04cae73560620a5full, 0xc2b2c408aa9d04f4ull}},
        {"253.perlbmk", {0x44b7250d66d05f41ull, 0x213a0833764a2373ull}},
        {"255.vortex", {0xc417e83858f185c7ull, 0xbdbb612b71f66697ull}},
        {"300.twolf", {0x1c507fff7fc9b9b2ull, 0xee791edcef83a92cull}},
        {"301.apsi", {0x58b16e522a1976ebull, 0x8f0ec939ba1e0aeeull}},
    };
    return table;
}

TEST_P(StreamIdentityTest, FirstRecordsMatchPinnedDigests)
{
    // The schedule tests above compare the producers with each other;
    // this one pins what they produce, so a change that moves every
    // producer's draws alike (the generator's own arithmetic, its
    // table bindings) still fails. Recorded from the generator that
    // looked its geometric tables up on every mean switch.
    std::vector<Instruction> records;
    {
        auto workload = makeSpecWorkload(GetParam());
        records = collectSingleStep(*workload, pinned_instructions);
    }
    const std::uint64_t next = digestInstructions(records);

    records.clear();
    {
        auto workload = makeSpecWorkload(GetParam());
        InstructionBatch batch;
        bool small = true;
        while (records.size() < pinned_instructions) {
            const std::uint64_t window = std::min<std::uint64_t>(
                pinned_instructions - records.size(), small ? 999 : 4096);
            workload->nextBatch(batch, window);
            records.insert(records.end(), batch.records,
                           batch.records + batch.size);
            small = !small;
        }
    }
    const std::uint64_t batched = digestInstructions(records);

    RequestStream stream;
    {
        auto workload = makeSpecWorkload(GetParam());
        FetchDedup dedup{fetch_block_bits, invalid_addr};
        RequestBatch batch;
        while (stream.instructions < pinned_instructions) {
            workload->nextRequests(
                batch, dedup, pinned_instructions - stream.instructions);
            stream.append(batch);
        }
    }
    const std::uint64_t requests = digestRequests(stream);

    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"%s\", {0x%016llxull, 0x%016llxull}},",
                  GetParam().c_str(), static_cast<unsigned long long>(next),
                  static_cast<unsigned long long>(requests));
    auto it = pinnedStreams().find(GetParam());
    ASSERT_NE(it, pinnedStreams().end()) << "no pinned value\n" << line;
    EXPECT_EQ(next, it->second.records) << "next()\n" << line;
    EXPECT_EQ(batched, it->second.records) << "nextBatch()\n" << line;
    EXPECT_EQ(requests, it->second.requests) << line;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, StreamIdentityTest,
                         ::testing::ValuesIn(specAllNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

} // anonymous namespace
} // namespace mnm
