#include "src/exec/executor.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/exec/profile.h"
#include "src/expr/vector_eval.h"

namespace xdb {

void ComputeTrace::Add(const ComputeTrace& other) {
  scan_rows += other.scan_rows;
  foreign_rows += other.foreign_rows;
  filter_input_rows += other.filter_input_rows;
  project_rows += other.project_rows;
  join_build_rows += other.join_build_rows;
  join_probe_rows += other.join_probe_rows;
  join_output_rows += other.join_output_rows;
  agg_input_rows += other.agg_input_rows;
  agg_output_rows += other.agg_output_rows;
  sort_rows += other.sort_rows;
  materialized_rows += other.materialized_rows;
  output_rows += other.output_rows;
}

namespace {

// Morsel granules. Fixed constants — never derived from the worker count —
// because morsel boundaries are part of the deterministic contract: output
// row order and floating-point accumulation order depend only on the input,
// so exec_threads=1 and exec_threads=N produce bit-identical results (and
// therefore identical ComputeTrace counters, transfer volumes, and figure
// reproductions).
constexpr size_t kMorselRows = 4096;      // filter / project / join probe
constexpr size_t kAggMorselRows = 16384;  // aggregation partial-state ranges

/// The profiler record of the operator currently executing, or nullptr when
/// no profiler is attached. Only touched on the coordinating thread (stats
/// are filled around — never inside — the morsel-parallel regions).
OperatorStats* ProfCurrent(ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  return prof != nullptr ? prof->current() : nullptr;
}

int64_t MorselCount(size_t n, size_t morsel_rows) {
  return static_cast<int64_t>((n + morsel_rows - 1) / morsel_rows);
}

/// Runs `fn(begin, end, buf)` over fixed-size morsels of [0, n), each morsel
/// filling its own output buffer, then concatenates the buffers into `out`
/// in morsel order. Row order is identical to a serial row-at-a-time loop
/// for any worker count.
template <typename MorselFn>
void MorselParallelAppend(int workers, size_t n, Table* out,
                          const MorselFn& fn) {
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<Row>> buffers(num_morsels);
  ParallelFor(workers, n, kMorselRows,
              [&](size_t m, size_t begin, size_t end) {
                fn(begin, end, &buffers[m]);
              });
  size_t total = 0;
  for (const auto& buf : buffers) total += buf.size();
  out->Reserve(out->num_rows() + total);
  for (auto& buf : buffers) {
    for (auto& row : buf) out->AppendRow(std::move(row));
  }
}

/// Serializes the key columns of `row` into `key` (cleared first) as a flat
/// normalized byte string. Returns false when any key column is NULL (join
/// keys never match on NULL).
bool NormalizedJoinKey(const Row& row, const std::vector<int>& key_cols,
                       std::string* key) {
  key->clear();
  for (int k : key_cols) {
    const Value& v = row[static_cast<size_t>(k)];
    if (v.is_null()) return false;
    v.AppendNormalizedKey(key);
  }
  return true;
}

/// Columnar variant: reads the key bytes straight from the column chunks
/// (dictionary codes, RLE runs, typed payloads) without materializing
/// Values. Byte-identical to the row variant — both delegate to the shared
/// normalized-key primitives in value.cc.
bool NormalizedJoinKeyChunked(const ChunkedTable& chunks, size_t row,
                              const std::vector<int>& key_cols,
                              std::string* key) {
  key->clear();
  for (int k : key_cols) {
    const ColumnChunk& c = chunks.column(static_cast<size_t>(k));
    if (c.IsNull(row)) return false;
    c.AppendNormalizedKey(row, key);
  }
  return true;
}

/// \brief Hash-partitioned join build table.
///
/// Build rows are partitioned by the hash of their normalized key and each
/// partition's map is built concurrently. The partition a key lands in is a
/// pure function of the key (never of the worker count), each partition
/// receives its row indices in ascending original order (morsels are drained
/// in morsel order), and probes look a key up in exactly one partition — so
/// match lists, first-occurrence tie order, and the emitted row order are
/// bit-identical to the old single-threaded single-map build for any
/// `exec_threads`.
struct PartitionedJoinTable {
  using Partition = std::unordered_map<std::string, std::vector<size_t>>;

  size_t num_partitions = 1;
  std::vector<Partition> parts;

  static size_t PartitionOf(const std::string& key, size_t num_partitions) {
    return std::hash<std::string>{}(key) % num_partitions;
  }

  const std::vector<size_t>* Find(const std::string& key) const {
    const Partition& p = parts[PartitionOf(key, num_partitions)];
    auto it = p.find(key);
    return it == p.end() ? nullptr : &it->second;
  }
};

PartitionedJoinTable BuildJoinTable(const Table& build,
                                    const std::vector<int>& build_keys,
                                    int workers,
                                    const ChunkedTable* chunks) {
  const size_t n = build.num_rows();
  PartitionedJoinTable ht;
  ht.num_partitions =
      std::min<size_t>(64, static_cast<size_t>(std::max(1, workers)));
  ht.parts.resize(ht.num_partitions);

  // Phase 1 (morsel-parallel): serialize every row's normalized key once and
  // bucket row indices by target partition, per morsel. When the build side
  // has a columnar mirror (base tables), keys come straight from the chunks.
  const size_t num_morsels = (n + kMorselRows - 1) / kMorselRows;
  std::vector<std::string> keys(n);
  std::vector<std::vector<std::vector<uint32_t>>> morsel_buckets(num_morsels);
  ParallelFor(workers, n, kMorselRows,
              [&](size_t m, size_t begin, size_t end) {
                auto& buckets = morsel_buckets[m];
                buckets.resize(ht.num_partitions);
                for (size_t i = begin; i < end; ++i) {
                  const bool ok =
                      chunks != nullptr
                          ? NormalizedJoinKeyChunked(*chunks, i, build_keys,
                                                     &keys[i])
                          : NormalizedJoinKey(build.row(i), build_keys,
                                              &keys[i]);
                  if (!ok) continue;  // NULL key columns never match
                  buckets[PartitionedJoinTable::PartitionOf(
                              keys[i], ht.num_partitions)]
                      .push_back(static_cast<uint32_t>(i));
                }
              });

  // Phase 2 (partition-parallel): each partition drains its buckets in
  // morsel order, so per-key index lists stay in ascending build-row order —
  // the serial first-occurrence semantics.
  ParallelFor(workers, ht.num_partitions, 1,
              [&](size_t p, size_t /*begin*/, size_t /*end*/) {
                auto& part = ht.parts[p];
                size_t total = 0;
                for (const auto& buckets : morsel_buckets) {
                  total += buckets[p].size();
                }
                part.reserve(total);
                for (const auto& buckets : morsel_buckets) {
                  for (uint32_t i : buckets[p]) {
                    part[keys[i]].push_back(i);
                  }
                }
              });
  return ht;
}

/// One aggregate's running state.
struct AggState {
  double sum = 0;
  int64_t isum = 0;
  bool int_sum = true;
  int64_t count = 0;
  Value min = Value::Null(TypeId::kInt64);
  Value max = Value::Null(TypeId::kInt64);

  /// Folds a later partition's state into this one. Merge order is fixed
  /// (partition order), keeping double summation associativity — and thus
  /// SUM/AVG bits — independent of the worker count. Ties in MIN/MAX keep
  /// the earlier partition's value, matching serial first-seen semantics.
  void Merge(const AggState& o) {
    sum += o.sum;
    isum += o.isum;
    int_sum = int_sum && o.int_sum;
    count += o.count;
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }
};

/// A group's representative key values plus per-aggregate states, keyed in
/// the hash table by the normalized key bytes.
struct GroupEntry {
  Row key;
  std::vector<AggState> states;
};

using GroupMap = std::unordered_map<std::string, GroupEntry>;

/// Moves `cand` into `buf`, keeping only rows passing `residual` (nullptr =
/// keep all). One EvalPredicateBatch sweep per morsel instead of a scalar
/// EvalPredicate per joined row, so a residual's typed inner loops amortize
/// over the whole candidate batch. Selection semantics are identical to the
/// scalar path by the batch evaluator's contract, and morsel boundaries are
/// unchanged — output order and traces stay bit-identical.
void AppendResidualFiltered(const Expr* residual, std::vector<Row>* cand,
                            std::vector<Row>* buf) {
  if (residual == nullptr) {
    for (Row& r : *cand) buf->push_back(std::move(r));
    cand->clear();
    return;
  }
  SelVector sel;
  SelRange(0, cand->size(), &sel);
  EvalPredicateBatch(*residual, *cand, &sel);
  for (uint32_t idx : sel) buf->push_back(std::move((*cand)[idx]));
  cand->clear();
}

Result<TablePtr> ExecJoin(const PlanNode& plan, ExecContext* ctx,
                          TablePtr left, TablePtr right) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  Schema out_schema = plan.output_schema;
  auto out = std::make_shared<Table>(out_schema);

  if (plan.left_keys.empty()) {
    // Cross product (kept for completeness; the planners avoid it).
    trace->join_build_rows += static_cast<double>(right->num_rows());
    trace->join_probe_rows += static_cast<double>(left->num_rows());
    if (OperatorStats* s = ProfCurrent(ctx)) {
      s->build_rows = static_cast<double>(right->num_rows());
      s->probe_rows = static_cast<double>(left->num_rows());
      s->batches = MorselCount(left->num_rows(), kMorselRows);
    }
    MorselParallelAppend(
        workers, left->num_rows(), out.get(),
        [&](size_t begin, size_t end, std::vector<Row>* buf) {
          std::vector<Row> cand;
          for (size_t i = begin; i < end; ++i) {
            const Row& lr = left->row(i);
            for (const auto& rr : right->rows()) {
              Row row;
              row.reserve(lr.size() + rr.size());
              row.insert(row.end(), lr.begin(), lr.end());
              row.insert(row.end(), rr.begin(), rr.end());
              cand.push_back(std::move(row));
            }
          }
          AppendResidualFiltered(plan.residual.get(), &cand, buf);
        });
    trace->join_output_rows += static_cast<double>(out->num_rows());
    return out;
  }

  // Hash join; build on the smaller input, probe with the larger, emitting
  // rows in (left || right) schema order either way. The build side keys the
  // table on normalized key bytes — one serialization per row instead of
  // hashing and comparing vector<Value> on every probe.
  bool build_right = right->num_rows() <= left->num_rows();
  const Table& build = build_right ? *right : *left;
  const Table& probe = build_right ? *left : *right;
  const std::vector<int>& build_keys =
      build_right ? plan.right_keys : plan.left_keys;
  const std::vector<int>& probe_keys =
      build_right ? plan.left_keys : plan.right_keys;

  trace->join_build_rows += static_cast<double>(build.num_rows());
  trace->join_probe_rows += static_cast<double>(probe.num_rows());
  if (OperatorStats* s = ProfCurrent(ctx)) {
    s->build_rows = static_cast<double>(build.num_rows());
    s->probe_rows = static_cast<double>(probe.num_rows());
    s->batches = MorselCount(probe.num_rows(), kMorselRows);
  }

  // Columnar mirrors (present on base tables, encoded at load time) feed
  // key extraction directly; the shared_ptrs keep them alive across the
  // parallel regions.
  const std::shared_ptr<const ChunkedTable> build_chunks = build.chunked();
  const std::shared_ptr<const ChunkedTable> probe_chunks = probe.chunked();
  const ChunkedTable* pc = probe_chunks.get();

  const PartitionedJoinTable ht =
      BuildJoinTable(build, build_keys, workers, build_chunks.get());

  // Probe runs per-morsel; the partitioned build table is shared read-only.
  // Each morsel first extracts all its probe keys in one batch pass (one
  // normalized-key sweep over rows or chunks), then probes.
  MorselParallelAppend(
      workers, probe.num_rows(), out.get(),
      [&](size_t begin, size_t end, std::vector<Row>* buf) {
        const size_t m = end - begin;
        std::vector<std::string> keys(m);
        std::vector<uint8_t> valid(m);
        for (size_t i = begin; i < end; ++i) {
          valid[i - begin] =
              pc != nullptr
                  ? NormalizedJoinKeyChunked(*pc, i, probe_keys,
                                             &keys[i - begin])
                  : NormalizedJoinKey(probe.row(i), probe_keys,
                                      &keys[i - begin]);
        }
        std::vector<Row> cand;
        for (size_t i = begin; i < end; ++i) {
          if (!valid[i - begin]) continue;
          const std::vector<size_t>* matches = ht.Find(keys[i - begin]);
          if (matches == nullptr) continue;
          for (size_t j : *matches) {
            const Row& lr = build_right ? probe.row(i) : build.row(j);
            const Row& rr = build_right ? build.row(j) : probe.row(i);
            Row row;
            row.reserve(lr.size() + rr.size());
            row.insert(row.end(), lr.begin(), lr.end());
            row.insert(row.end(), rr.begin(), rr.end());
            cand.push_back(std::move(row));
          }
        }
        AppendResidualFiltered(plan.residual.get(), &cand, buf);
      });
  trace->join_output_rows += static_cast<double>(out->num_rows());
  return out;
}

Result<TablePtr> ExecAggregate(const PlanNode& plan, ExecContext* ctx,
                               TablePtr input) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  trace->agg_input_rows += static_cast<double>(input->num_rows());
  if (OperatorStats* s = ProfCurrent(ctx)) {
    s->input_rows = static_cast<double>(input->num_rows());
    s->batches = MorselCount(input->num_rows(), kAggMorselRows);
  }

  const size_t nkeys = plan.group_keys.size();
  const size_t naggs = plan.aggregates.size();
  const size_t n = input->num_rows();

  // Code-space group keys: when the input has a columnar mirror and every
  // group key is a plain column reference, normalized key bytes come
  // straight from the chunks (dictionary codes / RLE runs / typed payloads)
  // and the representative key values materialize only when a group is
  // first seen — identical values, since the representative is always the
  // group's first row either way.
  const std::shared_ptr<const ChunkedTable> chunks_sp = input->chunked();
  const ChunkedTable* chunks = chunks_sp.get();
  bool chunked_keys = chunks != nullptr && nkeys > 0;
  if (chunked_keys) {
    for (const auto& g : plan.group_keys) {
      if (g->kind != ExprKind::kColumnRef || g->column_index < 0 ||
          static_cast<size_t>(g->column_index) >= chunks->num_columns()) {
        chunked_keys = false;
        break;
      }
    }
  }

  // Partial aggregation over fixed row ranges, merged in range order. The
  // range cut depends only on n, so accumulation order — and with it every
  // SUM/AVG double — is identical for any worker count.
  const size_t num_parts =
      std::max<size_t>(1, (n + kAggMorselRows - 1) / kAggMorselRows);
  std::vector<GroupMap> partials(num_parts);
  // Global aggregation (no GROUP BY) must yield one row even on empty input.
  if (nkeys == 0) {
    GroupEntry& e = partials[0][std::string()];
    e.states.resize(naggs);
  }

  ParallelFor(workers, n, kAggMorselRows, [&](size_t part, size_t begin,
                                              size_t end) {
    GroupMap& groups = partials[part];
    std::string norm;
    for (size_t r = begin; r < end; ++r) {
      const Row& row = input->row(r);
      norm.clear();
      GroupMap::iterator it;
      if (chunked_keys) {
        for (const auto& g : plan.group_keys) {
          chunks->column(static_cast<size_t>(g->column_index))
              .AppendNormalizedKey(r, &norm);
        }
        auto res = groups.try_emplace(norm);
        it = res.first;
        if (res.second) {
          Row key_vals;
          key_vals.reserve(nkeys);
          for (const auto& g : plan.group_keys) {
            key_vals.push_back(
                chunks->column(static_cast<size_t>(g->column_index))
                    .GetValue(r));
          }
          it->second.key = std::move(key_vals);
          it->second.states.resize(naggs);
        }
      } else {
        Row key_vals;
        key_vals.reserve(nkeys);
        for (const auto& g : plan.group_keys) {
          key_vals.push_back(EvalExpr(*g, row));
          key_vals.back().AppendNormalizedKey(&norm);
        }
        auto res = groups.try_emplace(norm);
        it = res.first;
        if (res.second) {
          it->second.key = std::move(key_vals);
          it->second.states.resize(naggs);
        }
      }
      for (size_t a = 0; a < naggs; ++a) {
        const Expr& agg = *plan.aggregates[a];
        AggState& st = it->second.states[a];
        if (agg.agg_kind == AggKind::kCountStar) {
          ++st.count;
          continue;
        }
        Value v = EvalExpr(*agg.children[0], row);
        if (v.is_null()) continue;  // SQL aggregates skip NULLs
        ++st.count;
        switch (agg.agg_kind) {
          case AggKind::kSum:
          case AggKind::kAvg:
            if (v.type() == TypeId::kDouble) st.int_sum = false;
            st.sum += v.AsDouble();
            st.isum += v.type() == TypeId::kDouble ? 0 : v.int64_value();
            break;
          case AggKind::kMin:
            if (st.min.is_null() || v.Compare(st.min) < 0) st.min = v;
            break;
          case AggKind::kMax:
            if (st.max.is_null() || v.Compare(st.max) > 0) st.max = v;
            break;
          default:
            break;
        }
      }
    }
  });

  // Deterministic merge: partitions fold into the first map in range order,
  // so the merged map's contents (and its iteration order, which sets the
  // output row order) are a pure function of the input.
  GroupMap merged = std::move(partials[0]);
  for (size_t p = 1; p < partials.size(); ++p) {
    for (auto& [key, entry] : partials[p]) {
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) {
        it->second = std::move(entry);
        continue;
      }
      for (size_t a = 0; a < naggs; ++a) {
        it->second.states[a].Merge(entry.states[a]);
      }
    }
  }

  auto out = std::make_shared<Table>(plan.output_schema);
  out->Reserve(merged.size());
  for (auto& [key, entry] : merged) {
    Row row = std::move(entry.key);
    row.reserve(nkeys + naggs);
    for (size_t a = 0; a < naggs; ++a) {
      const Expr& agg = *plan.aggregates[a];
      const AggState& st = entry.states[a];
      switch (agg.agg_kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case AggKind::kSum:
          if (st.count == 0) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else if (st.int_sum) {
            row.push_back(Value::Int64(st.isum));
          } else {
            row.push_back(Value::Double(st.sum));
          }
          break;
        case AggKind::kAvg:
          if (st.count == 0) {
            row.push_back(Value::Null(TypeId::kDouble));
          } else {
            row.push_back(
                Value::Double(st.sum / static_cast<double>(st.count)));
          }
          break;
        case AggKind::kMin:
          // An all-NULL (or empty) group yields a NULL of the aggregate's
          // inferred type, not the AggState's kInt64 placeholder.
          if (st.min.is_null()) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else {
            row.push_back(st.min);
          }
          break;
        case AggKind::kMax:
          if (st.max.is_null()) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else {
            row.push_back(st.max);
          }
          break;
      }
    }
    out->AppendRow(std::move(row));
  }
  trace->agg_output_rows += static_cast<double>(out->num_rows());
  return out;
}

/// The unprofiled executor body; ExecutePlan wraps it with the per-operator
/// profiling hook. Child recursion goes back through ExecutePlan so every
/// node gets its own record.
Result<TablePtr> ExecutePlanNode(const PlanNode& plan, ExecContext* ctx) {
  ComputeTrace* trace = ctx->trace();
  switch (plan.kind) {
    case PlanKind::kScan: {
      if (plan.is_foreign) {
        XDB_ASSIGN_OR_RETURN(
            TablePtr t,
            ctx->ForeignFetch(plan.foreign_server, plan.remote_relation,
                              plan.est_rows,
                              plan.est_rows >= 0
                                  ? plan.est_rows * plan.est_width
                                  : -1));
        trace->foreign_rows += static_cast<double>(t->num_rows());
        return t;
      }
      XDB_ASSIGN_OR_RETURN(TablePtr t, ctx->GetLocalTable(plan.table));
      trace->scan_rows += static_cast<double>(t->num_rows());
      return t;
    }
    case PlanKind::kFilter: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->filter_input_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = MorselCount(in->num_rows(), kMorselRows);
      }
      auto out = std::make_shared<Table>(plan.output_schema);
      // Base tables carry a columnar mirror: predicates then gather typed
      // payloads (or compare dictionary codes) instead of boxing Values.
      const auto chunks = in->chunked();
      const RowBlock block{&in->rows(), chunks.get()};
      MorselParallelAppend(
          ctx->exec_threads(), in->num_rows(), out.get(),
          [&](size_t begin, size_t end, std::vector<Row>* buf) {
            buf->reserve(end - begin);
            SelVector sel;
            SelRange(begin, end, &sel);
            EvalPredicateBatch(*plan.predicate, block, &sel);
            for (uint32_t i : sel) buf->push_back(in->row(i));
          });
      return out;
    }
    case PlanKind::kProject: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->project_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = MorselCount(in->num_rows(), kMorselRows);
      }
      auto out = std::make_shared<Table>(plan.output_schema);
      const auto chunks = in->chunked();
      const RowBlock block{&in->rows(), chunks.get()};
      MorselParallelAppend(
          ctx->exec_threads(), in->num_rows(), out.get(),
          [&](size_t begin, size_t end, std::vector<Row>* buf) {
            const size_t m = end - begin;
            buf->reserve(m);
            SelVector sel;
            SelRange(begin, end, &sel);
            // Batch-evaluate each output expression down its column, then
            // transpose the column vectors into output rows.
            std::vector<std::vector<Value>> cols(plan.exprs.size());
            for (size_t c = 0; c < plan.exprs.size(); ++c) {
              EvalExprBatch(*plan.exprs[c], block, sel, &cols[c]);
            }
            for (size_t i = 0; i < m; ++i) {
              Row projected;
              projected.reserve(plan.exprs.size());
              for (size_t c = 0; c < plan.exprs.size(); ++c) {
                projected.push_back(std::move(cols[c][i]));
              }
              buf->push_back(std::move(projected));
            }
          });
      return out;
    }
    case PlanKind::kJoin: {
      XDB_ASSIGN_OR_RETURN(TablePtr l, ExecutePlan(*plan.children[0], ctx));
      XDB_ASSIGN_OR_RETURN(TablePtr r, ExecutePlan(*plan.children[1], ctx));
      return ExecJoin(plan, ctx, std::move(l), std::move(r));
    }
    case PlanKind::kAggregate: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      return ExecAggregate(plan, ctx, std::move(in));
    }
    case PlanKind::kSort: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->sort_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = 1;
      }
      auto out = std::make_shared<Table>(plan.output_schema, in->rows());
      std::stable_sort(
          out->mutable_rows().begin(), out->mutable_rows().end(),
          [&](const Row& a, const Row& b) {
            for (const auto& [idx, desc] : plan.sort_keys) {
              int c = a[static_cast<size_t>(idx)].Compare(
                  b[static_cast<size_t>(idx)]);
              if (c != 0) return desc ? c > 0 : c < 0;
            }
            return false;
          });
      return out;
    }
    case PlanKind::kLimit: {
      // Top-N fusion: LIMIT directly over a Sort keeps only the N best
      // rows with a bounded partial sort instead of ordering everything —
      // the pattern TPC-H Q3/Q10 ("ORDER BY revenue DESC LIMIT k") hits.
      const PlanNode& child = *plan.children[0];
      if (child.kind == PlanKind::kSort && plan.limit >= 0) {
        XDB_ASSIGN_OR_RETURN(TablePtr in,
                             ExecutePlan(*child.children[0], ctx));
        trace->sort_rows += static_cast<double>(in->num_rows());
        if (OperatorStats* s = ProfCurrent(ctx)) {
          s->input_rows = static_cast<double>(in->num_rows());
          s->batches = 1;
        }
        auto less = [&](const Row& a, const Row& b) {
          for (const auto& [idx, desc] : child.sort_keys) {
            int c = a[static_cast<size_t>(idx)].Compare(
                b[static_cast<size_t>(idx)]);
            if (c != 0) return desc ? c > 0 : c < 0;
          }
          return false;
        };
        size_t n = std::min<size_t>(static_cast<size_t>(plan.limit),
                                    in->num_rows());
        std::vector<Row> rows = in->rows();
        std::partial_sort(rows.begin(),
                          rows.begin() + static_cast<long>(n), rows.end(),
                          less);
        rows.resize(n);
        return std::make_shared<Table>(plan.output_schema,
                                       std::move(rows));
      }
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(child, ctx));
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = 1;
      }
      auto out = std::make_shared<Table>(plan.output_schema);
      size_t n = std::min<size_t>(static_cast<size_t>(plan.limit),
                                  in->num_rows());
      out->Reserve(n);
      for (size_t i = 0; i < n; ++i) out->AppendRow(in->row(i));
      return out;
    }
    case PlanKind::kPlaceholder:
      return Status::Internal(
          "placeholder node reached the executor; delegation should have "
          "replaced it with a foreign table reference");
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  if (prof == nullptr) return ExecutePlanNode(plan, ctx);
  size_t idx = prof->Enter(plan);
  Result<TablePtr> result = ExecutePlanNode(plan, ctx);
  OperatorStats& s = prof->stats(idx);
  s.threads = ctx->exec_threads();
  if (result.ok()) {
    s.output_rows = static_cast<double>((*result)->num_rows());
  }
  prof->Exit(idx);
  return result;
}

}  // namespace xdb
