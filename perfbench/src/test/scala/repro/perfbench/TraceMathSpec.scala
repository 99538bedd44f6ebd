package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceMathSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) =
    Span(id, s"s$id", parent, op = 0, start, end)

  test("a span without children is all self time") {
    assert(TraceMath.selfNs(Seq(span(0, -1, 10, 30))) == Map(0 -> 20L))
  }

  test("self time subtracts the time disjoint children cover") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60))
    assert(TraceMath.selfNs(spans)(0) == 70L)
    assert(TraceMath.selfNs(spans)(1) == 20L)
  }

  test("overlapping children are counted once") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 50))
    assert(TraceMath.selfNs(spans)(0) == 60L)
  }

  test("grandchildren do not reduce the grandparent twice") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 1, 20, 30))
    val self = TraceMath.selfNs(spans)
    assert(self(0) == 60L && self(1) == 30L && self(2) == 10L)
  }

  test("a child running past its parent is clipped to the parent") {
    assert(TraceMath.coveredNs(0, 100, Seq((90L, 120L), (-5L, 5L))) == 15L)
    assert(TraceMath.selfNs(Seq(span(0, -1, 0, 100), span(1, 0, 90, 120)))(0) == 90L)
  }

  test("the tracer nests spans and records nothing while off") {
    val t = new Tracer
    t.span("off")(())
    t.recording = true
    t.op = 7
    t.span("outer")(t.span("inner")(t.count("n", 2)))
    t.count("n", 3)
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(byName.keySet == Set("outer", "inner"))
    assert(byName("inner").parent == byName("outer").id && byName("outer").parent == -1)
    assert(t.spans.forall(_.op == 7))
    assert(t.counts == Map("n" -> 5L))
  }
}
