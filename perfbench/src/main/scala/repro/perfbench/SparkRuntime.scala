package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** The pinned local Spark the Spark workloads run on. `SynthData`'s output
  * depends on the partition count, so both the core count and the shuffle
  * partitions are fixed, never `local[*]`.
  */
object SparkRuntime {
  val Cores = 2
  val ShufflePartitions = 8

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.default.parallelism", Cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  /** Row count and an order-independent content hash. */
  def fingerprint(name: String, df: DataFrame): (Long, String) = {
    val r = df.select(xxhash64(df.columns.map(col).toIndexedSeq: _*).cast("decimal(38,0)") as "h")
      .agg(count(lit(1)), sum("h")).collect()(0)
    val rows = r.getLong(0)
    (rows, s"$name=$rows#${Option(r.getDecimal(1)).map(_.toBigInteger.toString(16)).getOrElse("0")}")
  }
}
