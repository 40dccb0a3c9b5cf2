/**
 * @file
 * Top-K recommendation with the VMM sorting facility (Fig. 4 and the
 * Table II "Efficient Top-K recommendation" row).
 *
 * A toy two-tower recommender: item embeddings live in L3 (streamed
 * sparsely — real embedding tables are mostly zeros per row block),
 * a user embedding scores candidates with the matrix engine (VMM is
 * literally vector x matrix), and the top-K selection runs on the
 * relationship/permutation-matrix sorting path instead of a scalar
 * sort.
 */

#include <algorithm>
#include <cstdio>

#include "core/compute_core.hh"
#include "core/matrix_engine.hh"
#include "dma/sparse_codec.hh"
#include "sim/random.hh"

using namespace dtu;

int
main()
{
    constexpr unsigned embedding_dim = 16; // one FP32 vector
    constexpr unsigned candidates = 256;   // scored in 16-wide waves
    constexpr unsigned k = 8;

    Random rng(7);
    // User embedding and candidate item embeddings.
    std::vector<double> user(embedding_dim);
    for (auto &v : user)
        v = rng.uniform(-1, 1);
    std::vector<std::vector<double>> items(
        candidates, std::vector<double>(embedding_dim));
    for (auto &item : items)
        for (auto &v : item)
            v = rng.uniform(-1, 1);

    // Score candidates with the matrix engine: each VMM computes 16
    // dot products (user x 16 item columns) in one operation.
    ClockDomain clock(1.3e9);
    CoreConfig config;
    ComputeCore core("rec.core", nullptr, clock, config);
    RegisterFile &regs = core.regs();
    MatrixEngine engine(false);

    std::vector<double> scores(candidates);
    for (unsigned wave = 0; wave < candidates / 16; ++wave) {
        for (unsigned r = 0; r < embedding_dim; ++r) {
            regs.setVlane(0, r, user[r]);
            for (unsigned c = 0; c < 16; ++c)
                regs.setMelem(0, r, c, items[wave * 16 + c][r]);
        }
        regs.accZero(0);
        Instruction vmm{.op = Opcode::Vmm, .dst = 0, .a = 0, .b = 0,
                        .vmmRows = embedding_dim, .accumulate = true,
                        .dtype = DType::FP32};
        engine.executeVmm(regs, vmm);
        for (unsigned c = 0; c < 16; ++c)
            scores[wave * 16 + c] = regs.aclane(0, c);
    }

    // Wave-local top-k via the sorting facility, then a final merge
    // (the ListMerge pattern the paper cites for top-k aggregation).
    std::vector<double> pool;
    for (unsigned wave = 0; wave < candidates / 16; ++wave) {
        std::vector<double> wave_scores(
            scores.begin() + wave * 16, scores.begin() + (wave + 1) * 16);
        auto top = MatrixEngine::topK(wave_scores, k);
        pool.insert(pool.end(), top.begin(), top.end());
    }
    // Final pass: sort the per-wave winners (pool fits two vectors).
    std::vector<double> finalists = pool;
    std::vector<double> top_scores;
    {
        // Reduce the pool in 16-wide sorting passes.
        while (finalists.size() > 16) {
            std::vector<double> next;
            for (std::size_t i = 0; i < finalists.size(); i += 16) {
                std::size_t n =
                    std::min<std::size_t>(16, finalists.size() - i);
                std::vector<double> chunk(finalists.begin() + i,
                                          finalists.begin() + i + n);
                auto best = MatrixEngine::topK(
                    chunk, std::min<std::size_t>(k, n));
                next.insert(next.end(), best.begin(), best.end());
            }
            finalists = std::move(next);
        }
        top_scores = MatrixEngine::topK(
            finalists, std::min<std::size_t>(k, finalists.size()));
    }

    // Validate against a host-side sort.
    auto reference = scores;
    std::sort(reference.rbegin(), reference.rend());
    bool ok = true;
    for (unsigned i = 0; i < k; ++i)
        ok = ok && top_scores[i] == reference[i];

    std::printf("scored %u candidates in %u VMM operations\n",
                candidates, candidates / 16);
    std::printf("top-%u scores: ", k);
    for (double s : top_scores)
        std::printf("%6.3f ", s);
    std::printf("\nmatches host reference: %s\n", ok ? "yes" : "NO");

    // Show the sparse-embedding angle: a 10%-dense embedding block
    // compresses strongly on its way from L3.
    Tensor table(Shape({1024, embedding_dim}), DType::FP16);
    table.fillSparse(rng, 0.10);
    auto blob = sparseCompress(table);
    std::printf("\nembedding block: %zu KB dense -> %llu KB in the "
                "hardware sparse format (%.1fx)\n",
                table.bytes() / 1024,
                static_cast<unsigned long long>(blob.bytes() / 1024),
                static_cast<double>(table.bytes()) /
                    static_cast<double>(blob.bytes()));
    return 0;
}
