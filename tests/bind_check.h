#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/plan/planner.h"
#include "src/sql/parser.h"

namespace xdb {

/// Expects Planner::Bind to agree with Planner::Plan on `sql`: the output
/// schema of the plan's root (names, types, order) when planning succeeds,
/// the same status code when it fails.
inline void ExpectBindMatchesPlan(RelationResolver* resolver,
                                  const std::string& sql,
                                  PlannerOptions options = {}) {
  SCOPED_TRACE(sql);
  Result<sql::SelectPtr> stmt = sql::ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Result<Schema> bound = Planner(resolver, options).Bind(**stmt);
  const Result<PlanPtr> plan = Planner(resolver, options).Plan(**stmt);
  ASSERT_EQ(bound.ok(), plan.ok())
      << "bind: " << bound.status().ToString()
      << "; plan: " << plan.status().ToString();
  if (!plan.ok()) {
    EXPECT_EQ(bound.status().code(), plan.status().code());
    return;
  }
  const Schema& want = (*plan)->output_schema;
  ASSERT_EQ(bound->num_fields(), want.num_fields());
  for (size_t i = 0; i < want.num_fields(); ++i) {
    EXPECT_EQ(bound->field(i).name, want.field(i).name) << "field " << i;
    EXPECT_EQ(bound->field(i).type, want.field(i).type) << "field " << i;
  }
}

}  // namespace xdb
