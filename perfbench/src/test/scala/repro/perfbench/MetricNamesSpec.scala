package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The metrics the benchmark prints are exactly those BENCHMARK.json names. */
class MetricNamesSpec extends AnyFunSuite {

  private val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
  private def declared(key: String) = spec.get(key).elements().asScala.toSeq
    .map(m => m.get("name").asText() -> m.get("unit").asText())
  private val NamePattern = "[A-Za-z0-9_.-]+"

  private val pass = Main.Pass(wallS = 1.0, latMs = Seq(1.0, 2.0), failed = 0, heapMb = 10.0, gcMs = 0, jitMs = 0)
  private val endToEnd = Main.endToEnd(Seq(0.5), Seq(pass))
  private val perLayer = PerLayer.metrics(new TraceSummary(Nil, Map.empty, Map.empty), 0.0)

  test("end-to-end metrics match BENCHMARK.json's end_to_end, names and units") {
    assert(endToEnd.map(m => m.name -> m.unit) == declared("end_to_end"))
  }

  test("per-layer metrics match BENCHMARK.json's per_layer, names and units") {
    assert(perLayer.map(m => m.name -> m.unit) == declared("per_layer"))
  }

  test("every metric name, report-only ones too, matches [A-Za-z0-9_.-]+") {
    val suite = TuneSuite.setUp(seed = 0L, new Tracer)
    suite.runOp(0)
    val reportOnly = suite.report.map(_.name)
    assert(reportOnly.contains("gap_pct.relm") && reportOnly.contains("unsafe_recs"))
    for (n <- endToEnd.map(_.name) ++ perLayer.map(_.name) ++ reportOnly)
      assert(n.matches(NamePattern) && n.length <= 64, n)
  }

  test("the result line holds the four keys and every metric with all its digits") {
    val line = new ObjectMapper().readTree(Main.resultLine(correct = true, attempted = 3, failed = 0, endToEnd))
    assert(line.fieldNames().asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
    assert(line.get("attempted").asInt() == 3 && line.get("correct").asBoolean())
    val v = 1.0 / 3
    val one = new ObjectMapper().readTree(Main.resultLine(true, 1, 0, Seq(Metric("x", "ms", v))))
    assert(one.get("metrics").get("x").get("value").asDouble() == v)
    assert(one.get("metrics").get("x").get("unit").asText() == "ms")
  }

  test("BENCHMARK.json lists the workloads the benchmark knows") {
    val names = spec.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq
    assert(names == Workloads.all.map(_.name))
  }
}
