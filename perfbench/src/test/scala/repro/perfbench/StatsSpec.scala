package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private val hundred = (1 to 100).map(_.toDouble)

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("p90 is given when ten samples lie beyond it") {
    assert(Stats.percentile(hundred, 0.9) == Some(90.0))
  }

  test("p90 is withheld when fewer than ten samples lie beyond it") {
    assert(Stats.percentile(hundred.take(99), 0.9).isEmpty)
    assert(Stats.percentile(Seq(1.0, 2.0, 3.0), 0.9).isEmpty)
    assert(Stats.percentile(Nil, 0.5).isEmpty)
  }

  test("p50 of twenty samples has ten beyond it") {
    assert(Stats.percentile((1 to 20).map(_.toDouble), 0.5) == Some(10.0))
    assert(Stats.percentile((1 to 19).map(_.toDouble), 0.5).isEmpty)
  }
}
