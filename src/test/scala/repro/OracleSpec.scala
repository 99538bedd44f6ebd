package repro

import java.io.File
import java.sql.Date
import org.apache.spark.sql.functions._

/** The DuckDB oracle rejects what it should and sees Spark's column types. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val keys = Seq(9L, 10L, 11L).toDF("k")

  private def mismatch(body: => Unit): String =
    intercept[IllegalArgumentException](body).getMessage

  test("a wrong Spark result is rejected") {
    val wrong = keys.where($"k" > 9).agg(count(lit(1)) as "cnt")
    assert(mismatch(Oracle.assertEquivalent(wrong, "SELECT COUNT(*) AS cnt FROM t", "t" -> keys))
      .contains("result mismatch"))
  }

  test("a mismatched column set is rejected") {
    val counted = keys.agg(count(lit(1)) as "n")
    assert(mismatch(Oracle.assertEquivalent(counted, "SELECT COUNT(*) AS cnt FROM t", "t" -> keys))
      .contains("column mismatch"))
  }

  test("columns arrive typed: BIGINT keys sort numerically, a DATE compares with a date literal") {
    Oracle.assertEquivalent(keys.orderBy("k").limit(1), "SELECT k FROM t ORDER BY k LIMIT 1",
      "t" -> keys)

    val days = Seq("1995-03-09", "1995-03-14", "1995-03-15", "1995-03-16").map(Date.valueOf).toDF("d")
    Oracle.assertEquivalent(days.where($"d" < lit("1995-03-15")).agg(count(lit(1)) as "cnt"),
      "SELECT COUNT(*) AS cnt FROM t WHERE d < '1995-03-15'", "t" -> days)
  }

  test("the Parquet scratch directory is removed after a pass and after a failure") {
    def scratch = new File(System.getProperty("java.io.tmpdir")).listFiles()
      .filter(_.getName.startsWith("repro-oracle-")).toSet
    val before = scratch
    Oracle.assertEquivalent(keys.agg(count(lit(1)) as "cnt"), "SELECT COUNT(*) AS cnt FROM t",
      "t" -> keys)
    assert(scratch == before)
    mismatch(Oracle.assertEquivalent(keys.agg(count(lit(1)) as "cnt"), "SELECT 0 AS cnt FROM t",
      "t" -> keys))
    assert(scratch == before)
  }
}
