/**
 * @file
 * May-happen-in-parallel (MHP) analysis over the model IR, and the
 * independence relation it exports to the model checker.
 *
 * buildConcurrencyGraph() lowers one compiled AppModel (plus its flow
 * solution) into a concurrency graph: one node per executable step —
 * every lifecycle callback from the Fig. 4 CFG, plus the AsyncTask's
 * execute / doInBackground / onPostExecute steps from the async posted-
 * callback summary. Edges are happens-before facts the model
 * guarantees:
 *
 *  - Lifecycle: the CFG's own ordering (onCreate before onStart, the
 *    restart teardown before the recreated instance's callbacks, ...).
 *    The NextResumed → ConfigDispatch back edge is dropped — the graph
 *    models one runtime change, and MHP needs acyclicity.
 *  - Program: per-looper program order among steps the same looper
 *    runs in a fixed sequence (execute precedes the task's result).
 *  - PostReply: the post edge from a producer to the callback it
 *    enqueues (doInBackground → onPostExecute).
 *
 * computeMhp() closes reachability over the graph with a worklist
 * fixpoint; two nodes may happen in parallel exactly when neither
 * reaches the other. "Parallel" here means *unordered dispatch*: two
 * main-looper callbacks whose queue order the scheduler does not fix
 * can land either way around, which is all a write/teardown race needs.
 *
 * Each node carries read/write/teardown masks over the dataflow's
 * tracked locations plus one pseudo-location (kViewsBit: the captured
 * instance's live view tree). racePairs() reports MHP pairs whose
 * masks conflict — the async_race checker's raw material.
 *
 * IndependenceSpec is the contract this analysis exports to src/mc/:
 * a vocabulary of runtime step classes ("<looper>#<tag>") with the
 * same masks, from which the explorer derives a *sound* independence
 * oracle (DESIGN.md §14). src/sa/ stays simulator-free: the spec is
 * plain data; mapping runtime events onto classes is mc's job.
 */
#ifndef RCHDROID_SA_MHP_H
#define RCHDROID_SA_MHP_H

#include <cstdint>
#include <string>
#include <vector>

#include "sa/dataflow.h"
#include "sa/model_ir.h"

namespace rchdroid::sa {

/**
 * Bitmask over tracked state locations (bit i = model.locations[i])
 * plus the pseudo-location below. Locations beyond 31 saturate into
 * the pseudo-bit (conservative: they conflict with everything that
 * touches views) — the corpus tracks ≤ 3 locations per app.
 */
using LocationMask = std::uint32_t;

/** The captured (old / shadow) instance's live view tree. */
inline constexpr LocationMask kViewsBit = 1u << 31;

/** Bit for location index i (saturates into kViewsBit). */
LocationMask locationBit(std::size_t index);

/** Render a mask using the model's location names. */
std::string maskToString(const AppModel &model, LocationMask mask);

/** Which simulated thread a node runs on. */
enum class CgLooper : std::uint8_t { Main, Worker };

/** One executable step of the concurrency graph. */
struct CgNode
{
    /** Protocol label ("onDestroy", "AsyncTask.onPostExecute", ...). */
    std::string label;
    CgLooper looper = CgLooper::Main;
    /** Part of the async posted-callback chain. */
    bool is_async = false;
    LocationMask reads = 0;
    LocationMask writes = 0;
    /** Destructive writes: the step destroys these residences. */
    LocationMask teardown = 0;
};

enum class CgEdgeKind : std::uint8_t { Program, PostReply, Lifecycle };

/** "program" / "post" / "lifecycle". */
const char *cgEdgeKindName(CgEdgeKind kind);

/** One happens-before edge: nodes[from] precedes nodes[to]. */
struct CgEdge
{
    int from = 0;
    int to = 0;
    CgEdgeKind kind = CgEdgeKind::Lifecycle;
};

struct ConcurrencyGraph
{
    std::vector<CgNode> nodes;
    std::vector<CgEdge> edges;

    /** Index of the node with this label, or -1. */
    int node(const std::string &label) const;

    /** Multi-line debug dump (nodes, masks, edges). */
    std::string describe() const;
};

/**
 * Lower one compiled model into its concurrency graph. Effect masks
 * come from the flow solution: DestroyViews tears down exactly the
 * locations Live at its source node, CollectShadow the locations whose
 * only copy is the Shadow residence.
 */
ConcurrencyGraph buildConcurrencyGraph(const AppModel &model,
                                       const FlowSolution &flow);

/** The MHP fixpoint's result: the reachability closure. */
struct MhpResult
{
    std::size_t node_count = 0;
    /** reach[i][j]: node i happens before node j on every schedule. */
    std::vector<std::vector<bool>> reach;
    /** Worklist passes until quiescence (observability/tests). */
    int iterations = 0;

    bool ordered(std::size_t a, std::size_t b) const
    {
        return a == b || reach[a][b] || reach[b][a];
    }

    /** Symmetric, irreflexive: unordered distinct steps. */
    bool mhp(std::size_t a, std::size_t b) const
    {
        return a != b && !reach[a][b] && !reach[b][a];
    }
};

/** Close reachability over the graph (must be acyclic). */
MhpResult computeMhp(const ConcurrencyGraph &graph);

/** One statically-possible race: an MHP pair with conflicting masks. */
struct RacePair
{
    int a = 0;
    int b = 0;
    /** The locations both sides touch. */
    LocationMask locations = 0;
    /** One side tears down what the other writes or reads. */
    bool teardown = false;
};

/**
 * Every MHP pair whose masks conflict (write/write, write/read, or
 * either against a teardown), a < b, in node order.
 */
std::vector<RacePair> racePairs(const ConcurrencyGraph &graph,
                                const MhpResult &mhp);

// ---------------------------------------------------------------------
// The independence oracle exported to src/mc/ (DESIGN.md §14).
// ---------------------------------------------------------------------

/**
 * One runtime step class: every dispatch of a message with `tag` on
 * the looper named `looper` is an instance of this class, and the
 * masks over-approximate what any such dispatch may touch.
 */
struct StepClass
{
    /** Runtime looper name, e.g. "com.example.ping0.main". */
    std::string looper;
    /** Message tag, e.g. "gcTick" or "Benchmark4#task0.onPostExecute". */
    std::string tag;
    /** Owning process; classes of distinct processes never interact. */
    std::string process;
    LocationMask reads = 0;
    /** Includes destructive writes (teardown). */
    LocationMask writes = 0;
    /** Touches cross-process state (injections, ATMS): independent of
     * nothing. */
    bool global = false;

    /** The runtime key the mc footprint records: "<looper>#<tag>". */
    std::string key() const { return looper + "#" + tag; }
};

/**
 * The static independence relation one scenario hands the explorer.
 *
 * Soundness obligations on whoever builds a spec (hand-written per
 * scenario or derived from a compiled model):
 *  - masks over-approximate every dispatch of the class;
 *  - classes of distinct processes really are isolated — nothing a
 *    listed class does reads or writes another listed process's state
 *    (cross-process traffic must be marked `global`);
 *  - `closed_world` additionally asserts the listed classes are ALL
 *    message classes that can be dispatched inside the controlled
 *    window, and that none of them posts across processes.
 * The guided-vs-unguided bit-identical CTest and the differential race
 * gate check these obligations empirically on every run.
 */
struct IndependenceSpec
{
    std::vector<StepClass> classes;
    bool closed_world = false;

    bool empty() const { return classes.empty(); }

    /** Class with key() == `key`, or null. */
    const StepClass *find(const std::string &key) const;

    /** Owning process of the class registered on `looper`, or null. */
    const std::string *looperProcess(const std::string &looper) const;

    /**
     * Closed world with no global class: every event in the window
     * belongs to a listed class and processes are fully isolated —
     * the precondition of the explorer's persistent-set pruning.
     */
    bool processIsolated() const;

    /**
     * May dispatches of `a` and `b` be reordered without observable
     * difference? False whenever either is global or both share a
     * looper (one queue serialises them); true across distinct
     * processes; mask-disjointness within one process.
     */
    bool independentClasses(const StepClass &a, const StepClass &b) const;
};

} // namespace rchdroid::sa

#endif // RCHDROID_SA_MHP_H
