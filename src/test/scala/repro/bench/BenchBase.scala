package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{Hardware, Simulator}
import repro.tables.Tables

/** Shared fixtures for the per-table bench suites. The Table-8 computation
  * (every policy × every app) is the expensive one; it is computed once per
  * JVM and shared.
  */
object BenchBase {
  val hw: Hardware = Hardware.ClusterA
  val sim: Simulator = new Simulator(hw)
  lazy val t8: Tables.Table8Result = Tables.table8(sim)
}

abstract class BenchSuite extends AnyFunSuite {
  def hw: Hardware = BenchBase.hw
  def sim: Simulator = BenchBase.sim
  /** Print a reproduced table so the output of
    * `sbt "testOnly repro.bench.*"` carries the numbers.
    */
  def emit(s: String): Unit = { println(s); println() }
}
