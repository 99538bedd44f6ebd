package repro.workloads

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The SortByKey benchmark (paper Table 2): a full shuffle-sort, the
  * workload behind `AppModel.sortByKey` (external-sort spills, Obs 7).
  */
object SortByKeyW {

  /** Globally sorted (k, v) pairs — range-partitioned shuffle sort. */
  def sorted(pairs: DataFrame): DataFrame = pairs.orderBy(col("k"), col("v"))

  /** The `limit` smallest pairs, for oracle comparison (a multiset check on
    * the full sorted output would not verify ordering; the smallest-k prefix
    * does).
    */
  def smallest(pairs: DataFrame, limit: Int): DataFrame =
    sorted(pairs).limit(limit).select(col("k"), round(col("v"), 6) as "v")

  def oracleSql(limit: Int): String =
    s"SELECT k, ROUND(v, 6) AS v FROM pairs ORDER BY k, v LIMIT $limit"
}
